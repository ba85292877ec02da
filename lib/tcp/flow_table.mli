(** Flat structure-of-arrays per-flow state.

    One table holds the numeric fast-path state of every flow as
    parallel unboxed arrays; {!Sender} and the flow-level [many_flows]
    engine operate on a row index instead of a boxed per-flow record.
    A million rows are a handful of contiguous arrays (~16 words per
    flow, no per-flow heap objects or closures), and column scans run
    at memory bandwidth — the representation the ROADMAP's million-flow
    scenarios stand on.

    Float columns store the same IEEE doubles the old boxed fields
    held, so moving a sender's state into a row changes no golden.

    Rows are recycled through a free list; {!free}d rows are detectable
    via {!is_live}. Accessors are unchecked reads/writes of live rows —
    O(1), allocation-free. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** Capacity doubles on demand (amortized O(1) {!alloc}). *)

val alloc : t -> int
(** Claim a row, reset to defaults: cwnd 0, ssthresh ∞, counters 0,
    budget −1 (unbounded), timer −1 (none), phase 0, all latches
    clear. *)

val free : t -> int -> unit
(** Return a row to the free list. Raises on a dead row. *)

val is_live : t -> int -> bool
val capacity : t -> int
val in_use : t -> int

(** {1 Columns} — windows in float bytes, offsets/sizes in int bytes,
    times in int nanoseconds. *)

val cwnd : t -> int -> float
val set_cwnd : t -> int -> float -> unit
val ssthresh : t -> int -> float
val set_ssthresh : t -> int -> float -> unit
val una : t -> int -> int
val set_una : t -> int -> int -> unit
val nxt : t -> int -> int
val set_nxt : t -> int -> int -> unit
val rwnd : t -> int -> int
val set_rwnd : t -> int -> int -> unit
val dupacks : t -> int -> int
val set_dupacks : t -> int -> int -> unit
val recover : t -> int -> int
val set_recover : t -> int -> int -> unit
val reaction_mark : t -> int -> int
val set_reaction_mark : t -> int -> int -> unit
val bytes_sent : t -> int -> int
val set_bytes_sent : t -> int -> int -> unit

val budget : t -> int -> int
(** Remaining bytes to send; −1 = unbounded. *)

val set_budget : t -> int -> int -> unit

val acct : t -> int -> int
(** Free-use delivered-bytes accumulator (engine accounting). *)

val set_acct : t -> int -> int -> unit
val next_pace_ns : t -> int -> int
val set_next_pace_ns : t -> int -> int -> unit
val last_send_ns : t -> int -> int
val set_last_send_ns : t -> int -> int -> unit

val timer : t -> int -> int
(** A foreign timer handle ({!Sim.Timer_wheel} or {!Sim.Event_queue});
    −1 = none. The table only stores it. *)

val set_timer : t -> int -> int -> unit

(** {1 Phase and latches} — phase is a 2-bit code (sender: 0 syn-sent,
    1 slow-start, 2 cong-avoid, 3 fast-recovery; flow-level engines may
    assign their own meaning). *)

val phase : t -> int -> int
val set_phase : t -> int -> int -> unit
val stalled : t -> int -> bool
val set_stalled : t -> int -> bool -> unit
val completed : t -> int -> bool
val set_completed : t -> int -> bool -> unit
val started : t -> int -> bool
val set_started : t -> int -> bool -> unit
val cwr_pending : t -> int -> bool
val set_cwr_pending : t -> int -> bool -> unit

(** {1 Per-flow randomness} — an inline xorshift stream per row, so
    flow-level engines draw per-flow randomness without a shared-stream
    dependence on iteration order. *)

val seed_rng : t -> int -> int -> unit
(** [seed_rng t i seed] — a zero seed is remapped to a fixed nonzero
    constant. *)

val rng_next : t -> int -> int
(** Next positive 62-bit xorshift draw. *)

val rng_float : t -> int -> float
(** Uniform draw in [0,1) (53 mantissa bits). *)

(** {1 Snapshot} — full-table serialization into a {!Sim.Snapshot}
    image. Free rows and the free-list order travel too, so a restored
    table allocates the same rows in the same order as the original. *)

val save : t -> prefix:string -> Sim.Snapshot.writer -> unit
(** Write every column and scalar as sections named [prefix ^ column]. *)

val restore : t -> prefix:string -> Sim.Snapshot.reader -> unit
(** Overwrite [t] in place with the saved table. Raises
    {!Sim.Snapshot.Corrupt} on missing or inconsistent sections. *)

(** {1 Congestion-control hooks by row} — apply a {!Cong_avoid} bundle
    to a row's (cwnd, ssthresh) in place. {!ca_on_ack} and {!ca_on_loss}
    hand the policy the columns themselves, so with Reno neither
    allocates. *)

val ca_on_ack :
  t ->
  int ->
  Cong_avoid.t ->
  acks:int ->
  newly_acked:int ->
  mss:int ->
  srtt:Sim.Time.t option ->
  min_rtt:Sim.Time.t option ->
  now:Sim.Time.t ->
  unit
(** [acks] successive per-ACK updates ({!Cong_avoid.t.on_acks}). *)

val ca_on_loss :
  t -> int -> Cong_avoid.t -> flight:int -> mss:int -> now:Sim.Time.t -> unit

val ca_on_rto : t -> int -> Cong_avoid.t -> flight:int -> mss:int -> unit
