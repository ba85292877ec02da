(** A per-connection instrument group: named counters and gauges, in the
    spirit of a web100 connection's variable file.

    {!create_kis} makes a group that holds every {!Kis.all} variable
    from the start, and hands back a record of handles to them: an
    instrumented sender resolves its variables once and then writes
    only through the handles. {!counter} and {!gauge} find a variable by
    name, creating it at 0 on first access, for code that is not on a
    per-packet path (tests, observers, ad-hoc instruments). *)

type t

module Counter : sig
  type c

  val incr : ?by:int -> c -> unit
  val value : c -> int
end

module Gauge : sig
  type g

  val set : g -> float -> unit
  val value : g -> float
end

(** Handles to every {!Kis} variable, one field per name. *)
type kis = {
  pkts_out : Counter.c;
  data_bytes_out : Counter.c;
  pkts_retrans : Counter.c;
  bytes_retrans : Counter.c;
  congestion_signals : Counter.c;
  send_stall : Counter.c;
  timeouts : Counter.c;
  dup_acks_in : Counter.c;
  fast_retran : Counter.c;
  acks_in : Counter.c;
  cur_cwnd : Gauge.g;
  cur_ssthresh : Gauge.g;
  smoothed_rtt : Gauge.g;
  cur_rto : Gauge.g;
  min_rtt : Gauge.g;
  max_rwin_rcvd : Gauge.g;
  slow_start : Counter.c;
  cong_avoid : Counter.c;
  cur_ifq : Gauge.g;
}

val create : ?conn_name:string -> unit -> t
(** An empty group. *)

val create_kis : ?conn_name:string -> unit -> t * kis
(** A group holding every {!Kis.all} variable at 0, and the handles to
    them. No name is hashed or searched. *)

val conn_name : t -> string

val counter : t -> string -> Counter.c
(** Find-or-create. The same name always yields the same counter. *)

val gauge : t -> string -> Gauge.g

val read : t -> string -> float option
(** Current value of a variable by name (counters as floats). *)

val snapshot : t -> (string * float) list
(** All variables, sorted by name. *)

val pp : Format.formatter -> t -> unit
