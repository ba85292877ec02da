(* Flat structure-of-arrays per-flow state, in the event heap's style:
   one table holds the numeric state of every flow-level flow as parallel
   unboxed arrays, and the many_flows engine operates on a row index
   instead of a boxed per-flow record. Reading or writing a column is
   an array access — no pointer chase, no boxed float, no per-flow
   closure — so a million rows cost six contiguous arrays (6 words per
   flow) and scan at memory bandwidth.

   Rows are recycled through an intrusive free list threaded through
   the [link] column; [flags = -1] marks a free row, so a stale index
   is detectable. Column layout:

     floats  cwnd ssthresh     (bytes)
     ints    budget rng flags link

   [flags] holds the 2-bit phase code; [rng] is a per-flow xorshift
   state so flow-level engines can draw per-flow randomness without
   touching a shared stream. *)

let phase_mask = 0b11

type t = {
  mutable cap : int;
  mutable in_use : int;
  mutable free_head : int; (* threaded through [link]; -1 = none *)
  mutable cwnd : float array;
  mutable ssthresh : float array;
  mutable budget : int array; (* remaining bytes; -1 = unbounded *)
  mutable rng : int array; (* xorshift state, never 0 while in use *)
  mutable flags : int array; (* phase code; -1 = free row *)
  mutable link : int array; (* next free row; meaningless while live *)
}

(* Free rows [lo, hi) chained in index order, ending the list. *)
let chain link ~lo ~hi =
  for i = lo to hi - 1 do
    link.(i) <- (if i = hi - 1 then -1 else i + 1)
  done

let create ?(initial_capacity = 16) () =
  let cap = Stdlib.max 1 initial_capacity in
  let link = Array.make cap 0 in
  chain link ~lo:0 ~hi:cap;
  {
    cap;
    in_use = 0;
    free_head = 0;
    cwnd = Array.make cap 0.;
    ssthresh = Array.make cap 0.;
    budget = Array.make cap (-1);
    rng = Array.make cap 1;
    flags = Array.make cap (-1);
    link;
  }

let capacity t = t.cap
let in_use t = t.in_use

let grow t =
  let cap' = 2 * t.cap in
  let extf a =
    let a' = Array.make cap' 0. in
    Array.blit a 0 a' 0 t.cap;
    a'
  in
  let exti fill a =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.cap;
    a'
  in
  t.cwnd <- extf t.cwnd;
  t.ssthresh <- extf t.ssthresh;
  t.budget <- exti (-1) t.budget;
  t.rng <- exti 1 t.rng;
  t.flags <- exti (-1) t.flags;
  t.link <- exti 0 t.link;
  chain t.link ~lo:t.cap ~hi:cap';
  t.free_head <- t.cap;
  t.cap <- cap'

let alloc t =
  if t.free_head < 0 then grow t;
  let i = t.free_head in
  t.free_head <- t.link.(i);
  t.in_use <- t.in_use + 1;
  t.cwnd.(i) <- 0.;
  t.ssthresh.(i) <- infinity;
  t.budget.(i) <- -1;
  t.rng.(i) <- 1;
  t.flags.(i) <- 0;
  i

let is_live t i = i >= 0 && i < t.cap && t.flags.(i) >= 0

let free t i =
  if not (is_live t i) then invalid_arg "Flow_table.free: dead row";
  t.flags.(i) <- -1;
  t.link.(i) <- t.free_head;
  t.free_head <- i;
  t.in_use <- t.in_use - 1

(* --- column accessors -------------------------------------------------- *)

let cwnd t i = Array.unsafe_get t.cwnd i
let set_cwnd t i v = Array.unsafe_set t.cwnd i v
let ssthresh t i = Array.unsafe_get t.ssthresh i
let set_ssthresh t i v = Array.unsafe_set t.ssthresh i v
let budget t i = Array.unsafe_get t.budget i
let set_budget t i v = Array.unsafe_set t.budget i v
let phase t i = Array.unsafe_get t.flags i land phase_mask
let set_phase t i p = Array.unsafe_set t.flags i (p land phase_mask)

(* --- per-flow randomness ----------------------------------------------- *)

let seed_rng t i seed =
  let s = seed land max_int in
  t.rng.(i) <- (if s = 0 then 0x2545F4914F6CDD1D land max_int else s)

(* 62-bit xorshift; positive, never sticks at 0 for a nonzero seed. *)
let rng_next t i =
  let x = Array.unsafe_get t.rng i in
  let x = x lxor (x lsl 13) land max_int in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) land max_int in
  Array.unsafe_set t.rng i x;
  x

let rng_float t i =
  float_of_int (rng_next t i land ((1 lsl 53) - 1)) *. 0x1p-53

(* --- snapshot ----------------------------------------------------------- *)

(* Full-table serialization: every column at full capacity plus the
   three scalars. Free rows travel too — the free list is threaded
   through [link] and marked by [flags = -1] — so a restored table
   hands out the same rows in the same order as the original, which is
   what keeps post-resume allocations (and the per-row RNG streams
   seeded into them) byte-identical to an unbroken run.

   The link column travels as section "una": the free list used to be
   threaded through a sender's una column, and keeping the name lets
   images written by that wider table restore. Their other columns
   (nxt, rwnd, timer, ...) are sections this reader never asks for, and
   their latch bits above the phase are masked off by [phase]. *)

let save t ~prefix w =
  let p name = prefix ^ name in
  Sim.Snapshot.put_int w (p "cap") t.cap;
  Sim.Snapshot.put_int w (p "in_use") t.in_use;
  Sim.Snapshot.put_int w (p "free_head") t.free_head;
  Sim.Snapshot.put_float_array w (p "cwnd") t.cwnd;
  Sim.Snapshot.put_float_array w (p "ssthresh") t.ssthresh;
  Sim.Snapshot.put_int_array w (p "budget") t.budget;
  Sim.Snapshot.put_int_array w (p "rng") t.rng;
  Sim.Snapshot.put_int_array w (p "flags") t.flags;
  Sim.Snapshot.put_int_array w (p "una") t.link

let restore t ~prefix r =
  let p name = prefix ^ name in
  let cap = Sim.Snapshot.get_int r (p "cap") in
  if cap <= 0 then raise (Sim.Snapshot.Corrupt "Flow_table: bad capacity");
  let column get name =
    let a = get r (p name) in
    if Array.length a <> cap then
      raise (Sim.Snapshot.Corrupt ("Flow_table: short column " ^ name));
    a
  in
  let ints = column Sim.Snapshot.get_int_array in
  let floats = column Sim.Snapshot.get_float_array in
  t.cap <- cap;
  t.in_use <- Sim.Snapshot.get_int r (p "in_use");
  t.free_head <- Sim.Snapshot.get_int r (p "free_head");
  t.cwnd <- floats "cwnd";
  t.ssthresh <- floats "ssthresh";
  t.budget <- ints "budget";
  t.rng <- ints "rng";
  t.flags <- ints "flags";
  t.link <- ints "una"

(* --- congestion-control hooks by row ----------------------------------- *)

let ca_on_ack t i (cc : Cong_avoid.t) ~acks ~newly_acked ~mss ~srtt ~min_rtt
    ~now =
  cc.Cong_avoid.on_acks ~acks ~newly_acked ~mss ~srtt ~min_rtt ~now t.cwnd i

let ca_on_loss t i (cc : Cong_avoid.t) ~flight ~mss ~now =
  cc.Cong_avoid.on_loss_at ~flight ~mss ~now ~cwnd:t.cwnd ~ssthresh:t.ssthresh
    i
