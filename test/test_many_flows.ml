(* Tests for the flow-level many-flows engine and its Spec integration:
   bit-level determinism (same seed twice, and independence from the
   worker count), budgeted-flow retirement, and capacity conservation
   under overload. *)

module Mf = Workload.Many_flows

let run_engine ?(flows = 200) ?(duration = 5.) ?mean_size ?arrival_rate
    ?(red = None) ~seed () =
  let sched = Sim.Scheduler.create ~seed () in
  let t =
    Mf.start ~sched ~rng:(Sim.Scheduler.derive_rng sched) ~seed
      {
        Mf.default_params with
        flows;
        arrival_rate;
        mean_size;
        red;
        capacity_bytes_per_sec = 10e6 /. 8.;
        base_rtt = Sim.Time.ms 40;
        buffer_packets = 60;
      }
  in
  Sim.Scheduler.run ~until:(Sim.Time.of_sec duration) sched;
  t

let fingerprint t =
  ( Mf.delivered_bytes t,
    Mf.loss_events t,
    Mf.queue_packets t,
    Mf.sum_cwnd_bytes t,
    Mf.created t,
    Mf.completed t )

let test_engine_determinism () =
  let a = fingerprint (run_engine ~seed:7 ()) in
  let b = fingerprint (run_engine ~seed:7 ()) in
  Alcotest.(check bool) "same seed, identical counters" true (a = b);
  let c = fingerprint (run_engine ~seed:8 ()) in
  Alcotest.(check bool) "different seed diverges" true (a <> c)

let test_budgeted_flows_complete () =
  let t =
    run_engine ~flows:50 ~duration:30. ~mean_size:30_000 ~arrival_rate:25.
      ~seed:3 ()
  in
  Alcotest.(check int) "all flows created" 50 (Mf.created t);
  Alcotest.(check int) "all budgets drained" 50 (Mf.completed t);
  Alcotest.(check int) "none left running" 0 (Mf.active t);
  Alcotest.(check bool)
    "delivered at least the minimum sizes" true
    (Mf.delivered_bytes t >= 50. *. 1500.)

let test_goodput_bounded_by_capacity () =
  (* Heavy overload with RED: aggregate goodput must not exceed the
     fluid bottleneck's line rate. *)
  let red =
    Some
      { Netsim.Queue_disc.min_th = 15.; max_th = 45.; max_p = 0.1; weight = 0.002 }
  in
  let t = run_engine ~flows:5_000 ~duration:8. ~red ~seed:11 () in
  let g = Mf.goodput_mbps t ~duration:(Sim.Time.of_sec 8.) in
  Alcotest.(check bool)
    (Printf.sprintf "goodput %.1f <= 10 Mbit/s capacity" g)
    true
    (g <= 10.0 +. 1e-6);
  Alcotest.(check bool) "and the link is busy" true (g > 5.)

let mf_spec ~jobs:_ ~seed =
  {
    Core.Spec.default with
    name = "mf-jobs";
    seed;
    duration = Sim.Time.of_sec 6.;
    sample_period = Sim.Time.ms 250;
    topology =
      Core.Spec.Duplex
        {
          Core.Spec.default_duplex with
          rate = Sim.Units.mbps 20.;
          one_way_delay = Sim.Time.ms 20;
          ifq_capacity = 80;
        };
    flows =
      [
        {
          Core.Spec.default_flow with
          workload =
            Core.Spec.Many_flows
              {
                flows = 300;
                arrival_rate = Some 100.;
                arrival_pareto_shape = None;
                mean_size = Some 200_000;
                size_pareto_shape = 1.3;
              };
        };
      ];
  }

let outcome_fingerprint (o : Core.Spec.outcome) =
  let r = List.hd o.results in
  ( r.goodput_mbps,
    r.congestion_signals,
    r.final_cwnd_segments,
    r.mean_ifq,
    r.peak_ifq,
    Array.to_list (Sim.Stats.Series.values r.cwnd_series),
    Array.to_list (Sim.Stats.Series.values r.ifq_series),
    o.path.queue_mean )

let test_jobs_independent () =
  (* The same batch through 1 worker and through 2 domains must be
     byte-identical: per-flow seeds derive from the spec, not from
     execution interleaving. *)
  let specs = [ mf_spec ~jobs:1 ~seed:5; mf_spec ~jobs:1 ~seed:6 ] in
  let seq =
    Engine.Pool.with_pool ~jobs:1 (fun pool -> Core.Spec.run_batch ~pool specs)
  in
  let par =
    Engine.Pool.with_pool ~jobs:2 (fun pool -> Core.Spec.run_batch ~pool specs)
  in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        "outcome independent of worker count" true
        (outcome_fingerprint a = outcome_fingerprint b))
    seq par;
  Alcotest.(check bool)
    "seeds still matter" true
    (outcome_fingerprint (List.nth seq 0) <> outcome_fingerprint (List.nth seq 1))

(* Parameter validation: every nonsensical value must be refused up
   front with a named Invalid_argument, not surface later as a NaN
   schedule or an infinite-mean sampler. *)
let test_param_validation () =
  let start params =
    let sched = Sim.Scheduler.create ~seed:1 () in
    ignore (Mf.start ~sched ~rng:(Sim.Scheduler.derive_rng sched) ~seed:1 params)
  in
  let rejects what msg params =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> start params)
  in
  rejects "zero flows" "Many_flows.start: need a positive flow count"
    { Mf.default_params with flows = 0 };
  rejects "negative capacity" "Many_flows.start: need a positive capacity"
    { Mf.default_params with capacity_bytes_per_sec = -1. };
  rejects "zero mss" "Many_flows.start: need a positive mss"
    { Mf.default_params with mss = 0 };
  rejects "zero initial window"
    "Many_flows.start: need a positive initial window"
    { Mf.default_params with init_cwnd_segments = 0 };
  rejects "zero buffer" "Many_flows.start: need at least one buffer packet"
    { Mf.default_params with buffer_packets = 0 };
  rejects "zero RTT" "Many_flows.start: need a positive base RTT"
    { Mf.default_params with base_rtt = Sim.Time.zero };
  rejects "zero arrival rate"
    "Many_flows.start: arrival_rate must be positive"
    { Mf.default_params with arrival_rate = Some 0. };
  rejects "negative arrival rate"
    "Many_flows.start: arrival_rate must be positive"
    { Mf.default_params with arrival_rate = Some (-3.) };
  rejects "arrival shape at 1"
    "Many_flows.start: arrival_pareto_shape must exceed 1 (shape <= 1 has \
     an infinite mean inter-arrival gap)"
    {
      Mf.default_params with
      arrival_rate = Some 10.;
      arrival_pareto_shape = Some 1.;
    };
  rejects "zero mean size" "Many_flows.start: mean_size must be positive"
    { Mf.default_params with mean_size = Some 0 };
  rejects "size shape below 1"
    "Many_flows.start: size_pareto_shape must exceed 1 (shape <= 1 has an \
     infinite mean flow size)"
    { Mf.default_params with mean_size = Some 50_000; size_pareto_shape = 0.9 };
  (* The size shape is ignored — and so not validated — for persistent
     flows, where no size is ever drawn. *)
  start { Mf.default_params with flows = 2; size_pareto_shape = 0.5 }

let test_spec_rejects_two_many_flows () =
  let f = (mf_spec ~jobs:1 ~seed:1).flows |> List.hd in
  let bad = { (mf_spec ~jobs:1 ~seed:1) with flows = [ f; f ] } in
  Alcotest.check_raises "two many_flows flows rejected"
    (Invalid_argument "Spec.build: at most one many_flows flow per spec")
    (fun () ->
      ignore (Core.Spec.build bad))

(* The engine's running window sum against the live windows re-summed
   from the flow table. A finishing flow's final round may move its
   window before it retires, so retiring must subtract the window the
   sum holds (the pre-round one), or every such flow leaves the
   difference behind. Checked mid-run, with finite flows arriving and
   retiring, and after every flow has retired, when the sum must
   return to zero. *)
let test_window_sum_tracks_live_windows () =
  let sched = Sim.Scheduler.create ~seed:7 () in
  let t =
    Mf.start ~sched ~rng:(Sim.Rng.of_seed 7) ~seed:7
      {
        Mf.default_params with
        flows = 2000;
        arrival_rate = Some 2000.;
        mean_size = Some 50_000;
        capacity_bytes_per_sec = 100e6 /. 8.;
      }
  in
  let live_sum () =
    let tbl = Mf.table t in
    let sum = ref 0. in
    for row = 0 to Tcp.Flow_table.capacity tbl - 1 do
      if Tcp.Flow_table.is_live tbl row then
        sum := !sum +. Tcp.Flow_table.cwnd tbl row
    done;
    !sum
  in
  (* Float rounding over the run's updates stays far below [tol]. *)
  let check_sum what ~tol expected =
    let got = Mf.sum_cwnd_bytes t in
    if not (Float.abs (got -. expected) <= tol) then
      Alcotest.failf "%s: tracked %g bytes, expected %g" what got expected
  in
  List.iter
    (fun s ->
      Sim.Scheduler.run ~until:(Sim.Time.sec s) sched;
      check_sum (Printf.sprintf "at %d s" s) ~tol:1. (live_sum ()))
    [ 1; 2; 5; 20 ];
  Alcotest.(check bool) "flows finished mid-run" true (Mf.completed t > 100);
  Sim.Scheduler.run ~until:(Sim.Time.sec 600) sched;
  Alcotest.(check int) "every flow retired" 0 (Mf.active t);
  Alcotest.(check int) "all created" 2000 (Mf.created t);
  check_sum "no flow active" ~tol:1e-6 0.

(* The many-flows engine contract: past warm-up a flow round allocates
   nothing. A persistent RED population in the benchmark's regime (about
   four segments per window) runs both round kinds — loss-free rounds
   (one batched policy call) and loss rounds. Rounds are counted through
   a pass-through Reno, whose forwarding closures allocate nothing. The
   only allocation left in the run loop is the srtt option rebuilt when
   the fluid queue moves, once per event time, so it is charged per
   scheduler step rather than per round. *)
let test_rounds_allocate_nothing () =
  let rounds = ref 0 in
  let reno = Tcp.Cong_avoid.reno () in
  let cong_avoid =
    {
      reno with
      Tcp.Cong_avoid.on_acks =
        (fun ~acks ~newly_acked ~mss ~srtt ~min_rtt ~now cwnd i ->
          incr rounds;
          reno.on_acks ~acks ~newly_acked ~mss ~srtt ~min_rtt ~now cwnd i);
      on_loss_at =
        (fun ~flight ~mss ~now ~cwnd ~ssthresh i ->
          incr rounds;
          reno.on_loss_at ~flight ~mss ~now ~cwnd ~ssthresh i);
    }
  in
  let sched = Sim.Scheduler.create ~seed:5 () in
  let t =
    Mf.start ~sched ~rng:(Sim.Scheduler.derive_rng sched) ~seed:5 ~cong_avoid
      {
        Mf.default_params with
        flows = 10_000;
        capacity_bytes_per_sec = 8e9 /. 8.;
        buffer_packets = 1000;
        red =
          Some
            {
              Netsim.Queue_disc.min_th = 200.;
              max_th = 600.;
              max_p = 0.1;
              weight = 0.002;
            };
      }
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 2) sched;
  let horizon = Sim.Time.to_ns_int (Sim.Time.sec 4) in
  let rounds0 = !rounds and losses0 = Mf.loss_events t and steps = ref 0 in
  let before = Gc.minor_words () in
  while
    let ns = Sim.Scheduler.next_ns sched in
    ns >= 0 && ns <= horizon
  do
    ignore (Sim.Scheduler.step sched);
    incr steps
  done;
  let words = Gc.minor_words () -. before in
  let n = !rounds - rounds0 in
  Alcotest.(check bool) "both round kinds ran" true
    (Mf.loss_events t - losses0 > 1000 && n - (Mf.loss_events t - losses0) > 1000);
  Alcotest.(check bool)
    (Printf.sprintf
       "%d rounds in %d steps: %.0f minor words (%.4f per round), at most \
        one 2-word srtt box per step"
       n !steps words (words /. float_of_int n))
    true
    (words <= 2. *. float_of_int !steps)

let suite =
  [
    Alcotest.test_case "engine is deterministic per seed" `Quick
      test_engine_determinism;
    Alcotest.test_case "budgeted flows retire" `Quick
      test_budgeted_flows_complete;
    Alcotest.test_case "goodput bounded by capacity under overload" `Quick
      test_goodput_bounded_by_capacity;
    Alcotest.test_case "outcome independent of --jobs" `Quick
      test_jobs_independent;
    Alcotest.test_case "parameter validation" `Quick test_param_validation;
    Alcotest.test_case "at most one many_flows per spec" `Quick
      test_spec_rejects_two_many_flows;
    Alcotest.test_case "window sum tracks the live windows" `Quick
      test_window_sum_tracks_live_windows;
    Alcotest.test_case "flow rounds allocate nothing" `Quick
      test_rounds_allocate_nothing;
  ]
