type t = {
  name : string;
  on_ack :
    newly_acked:int -> cwnd:float -> mss:int -> srtt:Sim.Time.t option ->
    min_rtt:Sim.Time.t option -> now:Sim.Time.t -> float;
  on_acks :
    acks:int -> newly_acked:int -> mss:int -> srtt:Sim.Time.t option ->
    min_rtt:Sim.Time.t option -> now:Sim.Time.t -> float array -> int ->
    unit;
  on_loss : cwnd:float -> flight:int -> mss:int -> now:Sim.Time.t ->
    float * float;
  on_loss_at :
    flight:int -> mss:int -> now:Sim.Time.t -> cwnd:float array ->
    ssthresh:float array -> int -> unit;
  on_rto : cwnd:float -> flight:int -> mss:int -> float * float;
  reset : unit -> unit;
}

(* [@inline] keeps the in-place loss hooks allocation-free: a call the
   compiler does not inline returns its float boxed. *)
let[@inline] floor_window ~mss w = Float.max (2. *. float_of_int mss) w

(* The in-place hooks of a policy whose per-ACK or loss rule allocates
   anyway (epoch options, RTT refs): the by-value hook, called in
   order. *)
let repeat_ack on_ack ~acks ~newly_acked ~mss ~srtt ~min_rtt ~now cwnd i =
  for _ = 1 to acks do
    cwnd.(i) <- on_ack ~newly_acked ~cwnd:cwnd.(i) ~mss ~srtt ~min_rtt ~now
  done

let loss_at on_loss ~flight ~mss ~now ~cwnd ~ssthresh i =
  let ssthresh', cwnd' = on_loss ~cwnd:cwnd.(i) ~flight ~mss ~now in
  ssthresh.(i) <- ssthresh';
  cwnd.(i) <- cwnd'

let reno_increase ~mss cwnd =
  let m = float_of_int mss in
  cwnd +. (m *. m /. cwnd)

let[@inline] reno_halve ~flight ~mss =
  floor_window ~mss (float_of_int flight /. 2.)

let reno () =
  let on_ack ~newly_acked:_ ~cwnd ~mss ~srtt:_ ~min_rtt:_ ~now:_ =
    reno_increase ~mss cwnd
  in
  (* The window stays in a register across the batch. *)
  let on_acks ~acks ~newly_acked:_ ~mss ~srtt:_ ~min_rtt:_ ~now:_ cwnd i =
    let w = ref cwnd.(i) in
    for _ = 1 to acks do
      w := reno_increase ~mss !w
    done;
    cwnd.(i) <- !w
  in
  let on_loss ~cwnd:_ ~flight ~mss ~now:_ =
    let ssthresh = reno_halve ~flight ~mss in
    (ssthresh, ssthresh)
  in
  let on_loss_at ~flight ~mss ~now:_ ~cwnd ~ssthresh i =
    let s = reno_halve ~flight ~mss in
    ssthresh.(i) <- s;
    cwnd.(i) <- s
  in
  let on_rto ~cwnd:_ ~flight ~mss =
    (reno_halve ~flight ~mss, float_of_int mss)
  in
  {
    name = "reno";
    on_ack;
    on_acks;
    on_loss;
    on_loss_at;
    on_rto;
    reset = (fun () -> ());
  }

(* RFC 8312. Internal arithmetic in segments; time in seconds. *)
let cubic ?(c = 0.4) ?(beta = 0.7) () =
  let w_max = ref 0. in
  let epoch_start = ref None in
  let k = ref 0. in
  let w_est_base = ref 0. in
  let start_epoch ~now ~cwnd_seg =
    epoch_start := Some now;
    if !w_max < cwnd_seg then w_max := cwnd_seg;
    k := Float.cbrt (!w_max *. (1. -. beta) /. c);
    w_est_base := cwnd_seg
  in
  let on_ack ~newly_acked:_ ~cwnd ~mss ~srtt ~min_rtt:_ ~now =
    let m = float_of_int mss in
    let cwnd_seg = cwnd /. m in
    (match !epoch_start with
    | None -> start_epoch ~now ~cwnd_seg
    | Some _ -> ());
    let t_epoch =
      match !epoch_start with
      | Some t0 -> Sim.Time.to_sec (Sim.Time.sub now t0)
      | None -> 0.
    in
    let rtt = match srtt with Some s -> Sim.Time.to_sec s | None -> 0.1 in
    (* Target the cubic curve one RTT ahead. *)
    let t = t_epoch +. rtt in
    let w_cubic = (c *. ((t -. !k) ** 3.)) +. !w_max in
    (* TCP-friendly region: emulate Reno's average rate. *)
    let w_est =
      !w_est_base
      +. (3. *. (1. -. beta) /. (1. +. beta) *. (t_epoch /. Float.max rtt 1e-6))
    in
    let target = Float.max w_cubic w_est in
    let next =
      if target > cwnd_seg then
        (* Spread the increase over the ACKs of one window. *)
        cwnd_seg +. ((target -. cwnd_seg) /. Float.max cwnd_seg 1.)
      else cwnd_seg +. (0.01 /. Float.max cwnd_seg 1.)
    in
    next *. m
  in
  let on_loss ~cwnd ~flight:_ ~mss ~now =
    let m = float_of_int mss in
    let cwnd_seg = cwnd /. m in
    (* Fast convergence: release bandwidth when losses cluster. *)
    if cwnd_seg < !w_max then w_max := cwnd_seg *. (1. +. beta) /. 2.
    else w_max := cwnd_seg;
    let next = floor_window ~mss (cwnd *. beta) in
    epoch_start := Some now;
    k := Float.cbrt (!w_max *. (1. -. beta) /. c);
    w_est_base := next /. m;
    (next, next)
  in
  let on_rto ~cwnd:_ ~flight ~mss =
    let ssthresh = floor_window ~mss (float_of_int flight *. beta) in
    epoch_start := None;
    (ssthresh, float_of_int mss)
  in
  let reset () =
    w_max := 0.;
    epoch_start := None;
    k := 0.;
    w_est_base := 0.
  in
  {
    name = "cubic";
    on_ack;
    on_acks = repeat_ack on_ack;
    on_loss;
    on_loss_at = loss_at on_loss;
    on_rto;
    reset;
  }

(* Relentless congestion control (Mathis, arXiv 1102.3270): additive
   increase as Reno, but a loss event costs only the segments actually
   lost — here one MSS per fast-retransmit episode — instead of halving.
   ssthresh is pinned to the reduced window so recovery resumes exactly
   where the decrement left it. The analytical model: with per-segment
   loss probability p, +1 segment per RTT balances p·W segment
   decrements per RTT at p·W = 1, i.e. W* ≈ 1/p segments and throughput
   ≈ MSS/(p·RTT) — the oracle checked by test_policy_models. Timeouts
   still collapse the window (a lost retransmission means the decrement
   accounting is gone). *)
let relentless () =
  let base = reno () in
  let on_loss ~cwnd ~flight:_ ~mss ~now:_ =
    let next = floor_window ~mss (cwnd -. float_of_int mss) in
    (next, next)
  in
  let on_loss_at ~flight:_ ~mss ~now:_ ~cwnd ~ssthresh i =
    let next = floor_window ~mss (cwnd.(i) -. float_of_int mss) in
    ssthresh.(i) <- next;
    cwnd.(i) <- next
  in
  {
    name = "relentless";
    on_ack = base.on_ack;
    on_acks = base.on_acks;
    on_loss;
    on_loss_at;
    on_rto = base.on_rto;
    reset = (fun () -> ());
  }

(* Small-RTT cwnd scaling (Briscoe & De Schepper, arXiv 1904.07598):
   classic AIMD adds one segment per RTT, so a sub-millisecond-RTT flow
   accelerates its *rate* thousands of times faster than a WAN flow and
   starves it at a shared bottleneck. Below a reference RTT the additive
   increase is scaled by srtt/ref_rtt, making rate acceleration
   (segments/s per second) RTT-independent: +MSS·(srtt/ref) per RTT,
   i.e. +MSS²·(srtt/ref)/cwnd per ACK. At or above ref_rtt — and before
   an RTT estimate exists — this is exactly Reno; decrease rules are
   untouched, so the W ≈ 1.2/√p steady state shrinks proportionally for
   short-RTT flows instead of being RTT-blind. *)
let small_rtt ?(ref_rtt = Sim.Time.ms 25) () =
  let base = reno () in
  let on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now =
    match srtt with
    | Some rtt when Sim.Time.(rtt < ref_rtt) ->
        let m = float_of_int mss in
        let scale = Sim.Time.to_sec rtt /. Sim.Time.to_sec ref_rtt in
        cwnd +. (scale *. m *. m /. cwnd)
    | _ -> base.on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now
  in
  {
    name = "small-rtt";
    on_ack;
    on_acks = repeat_ack on_ack;
    on_loss = base.on_loss;
    on_loss_at = base.on_loss_at;
    on_rto = base.on_rto;
    reset = (fun () -> ());
  }

(* FAST-style delay-based control (Wei/Low FAST TCP): once per RTT the
   window moves toward the fixed point of
     w ← (1−γ)·w + γ·(base_rtt/avg_rtt · w + α)
   where avg_rtt is a γ-smoothed RTT average and α (segments) is the
   target per-flow backlog parked in the path's queues. At equilibrium
   w·(1 − base/avg) = α: exactly α segments queued. The per-update move
   is capped at window doubling, per the published algorithm. Loss
   reactions are Reno's. *)
let fast ?(alpha_seg = 16.) ?(gamma = 0.5) () =
  let base = reno () in
  let avg_rtt = ref None in
  let next_update = ref Sim.Time.zero in
  let on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now =
    match (srtt, min_rtt) with
    | Some rtt, Some base_rtt when Sim.Time.is_positive base_rtt ->
        let rtt_s = Sim.Time.to_sec rtt in
        let avg =
          match !avg_rtt with
          | None -> rtt_s
          | Some a -> ((1. -. gamma) *. a) +. (gamma *. rtt_s)
        in
        avg_rtt := Some avg;
        if Sim.Time.(now < !next_update) then cwnd
        else begin
          next_update := Sim.Time.add now rtt;
          let m = float_of_int mss in
          let base_s = Sim.Time.to_sec base_rtt in
          let target =
            ((1. -. gamma) *. cwnd)
            +. (gamma *. ((base_s /. avg *. cwnd) +. (alpha_seg *. m)))
          in
          floor_window ~mss (Float.min (2. *. cwnd) target)
        end
    | _ -> base.on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now
  in
  let reset () =
    avg_rtt := None;
    next_update := Sim.Time.zero
  in
  {
    name = "fast";
    on_ack;
    on_acks = repeat_ack on_ack;
    on_loss = base.on_loss;
    on_loss_at = base.on_loss_at;
    on_rto = base.on_rto;
    reset;
  }

(* Vegas: delay-based backlog estimation, adjusted once per RTT. *)
let vegas ?(alpha = 2.) ?(beta_seg = 4.) () =
  let base = reno () in
  let next_adjust = ref Sim.Time.zero in
  let on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now =
    match (srtt, min_rtt) with
    | Some rtt, Some base_rtt when Sim.Time.is_positive base_rtt ->
        if Sim.Time.(now < !next_adjust) then cwnd
        else begin
          next_adjust := Sim.Time.add now rtt;
          let m = float_of_int mss in
          let rtt_s = Sim.Time.to_sec rtt in
          let base_s = Sim.Time.to_sec base_rtt in
          (* Segments parked in queues along the path. *)
          let backlog = cwnd /. m *. ((rtt_s -. base_s) /. rtt_s) in
          if backlog < alpha then cwnd +. m
          else if backlog > beta_seg then floor_window ~mss (cwnd -. m)
          else cwnd
        end
    | _ ->
        base.on_ack ~newly_acked ~cwnd ~mss ~srtt ~min_rtt ~now
  in
  {
    name = "vegas";
    on_ack;
    on_acks = repeat_ack on_ack;
    on_loss = base.on_loss;
    on_loss_at = base.on_loss_at;
    on_rto = base.on_rto;
    reset = (fun () -> next_adjust := Sim.Time.zero);
  }
