(** Packet queueing disciplines for router ports and host interface
    queues: drop-tail (bounded by packets and optionally bytes) and RED
    (random early detection, gentle variant). *)

type drop_reason =
  | Full          (** tail drop: packet bound or byte bound exceeded *)
  | Red_early     (** probabilistic early drop *)
  | Red_forced    (** average queue above max threshold *)

type red_params = {
  min_th : float;   (** packets *)
  max_th : float;   (** packets *)
  max_p : float;    (** drop probability at [max_th] *)
  weight : float;   (** EWMA weight for the average queue size *)
}

val default_red : red_params

val red_drop_probability : red_params -> avg:float -> float
(** The steady-state RED curve: drop/mark probability at average queue
    [avg] (packets) — 0 below [min_th], linear to [max_p] at [max_th],
    gentle to 1 at [2·max_th]. The packet-level discipline, the fluid
    many-flows engine and the mean-field oracle all evaluate this same
    function. *)

type t

val droptail : ?capacity_bytes:int -> capacity_packets:int -> unit -> t
(** Classic FIFO with tail drop. [capacity_packets] must be positive. *)

val red :
  ?ecn:bool ->
  capacity_packets:int ->
  link_rate:Sim.Units.rate ->
  red_params ->
  t
(** RED over a FIFO bounded by [capacity_packets]. [link_rate] sizes the
    idle-time correction of the average queue estimate. With [ecn]
    (default false), probabilistic early "drops" mark the packet's CE
    bit and enqueue it instead (RFC 3168); forced drops (average above
    2·max_th) and tail drops still discard. *)

val ecn_marks : t -> int
(** Packets CE-marked so far (always 0 for drop-tail / non-ECN RED). *)

val enqueue : t -> now:Sim.Time.t -> Packet.t -> (unit, drop_reason) result
val take : t -> now:Sim.Time.t -> Packet.t
(** Remove and return the head packet, allocating nothing (the per-packet
    path checks {!length} first). Raises [Invalid_argument] on an empty
    queue. *)

val dequeue : t -> now:Sim.Time.t -> Packet.t option
(** {!take}, or [None] on an empty queue. *)

val length : t -> int
(** Packets currently queued. *)

val byte_length : t -> int
val capacity_packets : t -> int
val is_full : t -> bool

val drops : t -> int
(** Total packets refused since creation. *)

val enqueued : t -> int
(** Total packets accepted since creation. *)

val set_drop_hook : t -> (Packet.t -> drop_reason -> unit) -> unit
(** Invoked on every refused packet, after counters update. *)
