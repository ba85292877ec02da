(** Flat structure-of-arrays per-flow state for the flow-level
    [many_flows] engine.

    One table holds the numeric state of every flow as parallel unboxed
    arrays, and the engine operates on a row index instead of a boxed
    per-flow record. A row is six words — cwnd, ssthresh, budget, rng
    state, phase flags and the free-list link — with no per-flow heap
    object or closure, so a million rows are six contiguous arrays and
    column scans run at memory bandwidth. (A packet-level {!Sender}
    keeps its own state in its own record.)

    Rows are recycled through a free list; {!free}d rows are detectable
    via {!is_live}. Accessors are unchecked reads/writes of live rows —
    O(1), allocation-free. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** Capacity doubles on demand (amortized O(1) {!alloc}). *)

val alloc : t -> int
(** Claim a row, reset to defaults: cwnd 0, ssthresh ∞, budget −1
    (unbounded), phase 0. *)

val free : t -> int -> unit
(** Return a row to the free list. Raises on a dead row. *)

val is_live : t -> int -> bool
val capacity : t -> int
val in_use : t -> int

(** {1 Columns} — windows in float bytes, sizes in int bytes. *)

val cwnd : t -> int -> float
val set_cwnd : t -> int -> float -> unit
val ssthresh : t -> int -> float
val set_ssthresh : t -> int -> float -> unit

val budget : t -> int -> int
(** Remaining bytes to send; −1 = unbounded. *)

val set_budget : t -> int -> int -> unit

val phase : t -> int -> int
(** A 2-bit code whose meaning the engine assigns. *)

val set_phase : t -> int -> int -> unit

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
    {!Sim.Snapshot.Corrupt} on missing or inconsistent sections. Images
    written when the table also carried a packet-level sender's columns
    still restore: the extra sections are ignored. *)

(** {1 Congestion-control hooks by row} — apply a {!Cong_avoid} bundle
    to a row's (cwnd, ssthresh) in place. Both hand the policy the
    columns themselves, so with Reno neither allocates. *)

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

