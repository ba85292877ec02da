(* The traced run: per-layer numbers for one workload.

   Counts come from the program's own event tracer, switched on through
   the spec ([record_trace]) and narrowed with [Trace.set_mask] to one
   category per pass. A benchmark-side observer, scheduled every 10 ms
   of simulated time, drains the small ring into per-code tallies and
   reads the flow-level gauges; it only reads state, and each pass's
   outcome digest must equal the untraced one. Times come from untraced
   reference executions and from isolated loops over each layer's
   public functions. *)

module Spec = Core.Spec
module Code = Trace.Code

let median = Stats.median

(* --- per-pass tallies --------------------------------------------------- *)

type tally = {
  codes : int array;  (* records per Trace.Code *)
  mutable live_peak : int;  (* most live heap events seen at a dispatch *)
  mutable wheel_peak : int;  (* most pending wheel timers at a sample *)
  mutable flow_s : float;  (* active flows integrated over sim time *)
  mutable ticks : int;  (* observer firings *)
}

let new_tally () =
  { codes = Array.make Code.count 0; live_peak = 0; wheel_peak = 0;
    flow_s = 0.; ticks = 0 }

let period_s = 0.01

let observe tally ~mask built =
  let tr =
    match Spec.trace built with
    | Some tr -> tr
    | None -> invalid_arg "traced pass: spec has no tracer"
  in
  Trace.set_mask tr mask;
  let engines = Spec.many_flows_engines built in
  let drain () =
    Trace.iter tr (fun ~time_ns:_ ~code ~src:_ ~arg1 ~arg2:_ ->
        tally.codes.(code) <- tally.codes.(code) + 1;
        if code = Code.sched_dispatch && arg1 > tally.live_peak then
          tally.live_peak <- arg1);
    if Trace.dropped tr > 0 then
      failwith "traced pass: trace ring overflowed between drains";
    Trace.clear tr
  in
  let sample () =
    let pending, active =
      List.fold_left
        (fun (p, a) e ->
          ( p + Sim.Timer_wheel.pending (Workload.Many_flows.wheel e),
            a + Workload.Many_flows.active e ))
        (0, 0) engines
    in
    tally.wheel_peak <- max tally.wheel_peak pending;
    tally.flow_s <- tally.flow_s +. (float_of_int active *. period_s)
  in
  ignore
    (Sim.Scheduler.every (Spec.sched built) (Sim.Time.of_sec period_s)
       (fun () ->
         tally.ticks <- tally.ticks + 1;
         drain ();
         sample ()));
  fun () -> drain ()

let categories =
  [ Code.cat_sched; Code.cat_link; Code.cat_ifq; Code.cat_nic; Code.cat_tcp ]

(* --- isolated loops ----------------------------------------------------- *)

let noop () = ()
let due i = ((i * 977) mod 7919) + 1

(* Each isolated loop runs three times; the median per-operation cost
   in ns is reported. *)
let per_op ~n f =
  median
    (List.init 3 (fun _ ->
         let t0 = Exec.now () in
         f ();
         (Exec.now () -. t0) *. 1e9 /. float_of_int n))

let heap_with ~depth =
  let q = Sim.Event_queue.create () in
  for i = 0 to depth - 1 do
    ignore
      (Sim.Event_queue.add_born q ~birth:Sim.Time.zero
         ~time:(Sim.Time.of_ns_int (due i)) noop)
  done;
  q

(* Steady-state dispatch: pop the earliest event, schedule a successor,
   at a constant live depth — the scheduler's hot path. *)
let heap_add_pop_ns ~depth =
  let q = heap_with ~depth:(max 1 depth) in
  let n = 1_000_000 in
  per_op ~n (fun () ->
      for i = 0 to n - 1 do
        let ns = Sim.Event_queue.next_time_ns q in
        let (_ : unit -> unit) = Sim.Event_queue.pop_action_exn q in
        ignore
          (Sim.Event_queue.add_born q ~birth:Sim.Time.zero
             ~time:(Sim.Time.of_ns_int (ns + due i))
             noop)
      done)

(* The sender's per-ACK timer pattern at the same depth: a dispatch,
   its successor, and a retransmission timer cancelled and re-armed
   200 ms out. Reports minor words allocated per ACK. *)
let heap_arm_cancel_words ~depth =
  let q = heap_with ~depth:(max 1 depth) in
  let far = 200_000_000 in
  let rto = ref (Sim.Event_queue.add q ~time:(Sim.Time.of_ns_int far) noop) in
  let n = 1_000_000 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    let ns = Sim.Event_queue.next_time_ns q in
    let (_ : unit -> unit) = Sim.Event_queue.pop_action_exn q in
    ignore
      (Sim.Event_queue.add_born q ~birth:Sim.Time.zero
         ~time:(Sim.Time.of_ns_int (ns + due i))
         noop);
    Sim.Event_queue.cancel q !rto;
    rto :=
      Sim.Event_queue.add_born q ~birth:Sim.Time.zero
        ~time:(Sim.Time.of_ns_int (ns + far))
        noop
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Arm/cancel churn on a wheel already holding [population] timers. *)
let wheel_arm_ns ~population =
  let w =
    Sim.Timer_wheel.create ~initial_capacity:(population + 1)
      ~on_fire:(fun ~kind:_ ~flow:_ -> ())
      ()
  in
  let tick = Sim.Timer_wheel.tick_ns w in
  for i = 0 to population - 1 do
    ignore (Sim.Timer_wheel.arm w ~due_ns:(due i * tick) ~kind:0 ~flow:i)
  done;
  let n = 2_000_000 in
  per_op ~n (fun () ->
      for i = 0 to n - 1 do
        Sim.Timer_wheel.cancel w
          (Sim.Timer_wheel.arm w ~due_ns:(due i * tick) ~kind:0 ~flow:i)
      done)

(* Reno's per-ACK congestion-avoidance update. *)
let on_ack_ns () =
  let cc = Tcp.Cong_avoid.reno () in
  let mss = Tcp.Config.default.Tcp.Config.mss in
  let n = 2_000_000 in
  let cwnd = ref (100. *. float_of_int mss) in
  per_op ~n (fun () ->
      for _ = 1 to n do
        cwnd :=
          cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:!cwnd ~mss
            ~srtt:None ~min_rtt:None ~now:Sim.Time.zero;
        if !cwnd > 1e7 then cwnd := 100. *. float_of_int mss
      done)

(* One step of restricted slow-start's controller, configured as the
   policy configures it (default gains, clamped output, filtered D). *)
let pid_step_ns () =
  let cfg = Tcp.Slow_start.default_restricted_config in
  let pid =
    Control.Pid.create
      (Control.Pid.config ~out_min:0. ~out_max:1e9
         ~derivative_filter:
           (Sim.Time.to_sec cfg.Tcp.Slow_start.sample_min_interval *. 2.)
         cfg.Tcp.Slow_start.gains)
  in
  let n = 2_000_000 in
  let acc = ref 0. in
  let ns =
    per_op ~n (fun () ->
        for i = 1 to n do
          acc :=
            !acc
            +. Control.Pid.step pid ~dt:0.001
                 ~error:(float_of_int ((i land 127) - 64))
        done)
  in
  ignore (Sys.opaque_identity !acc);
  ns

(* --- the run ------------------------------------------------------------ *)

type result = {
  metrics : (string * float) list;
  attempted : int;  (* executions checked *)
  failed : int;
  failures : string list;
  probe : (Checks.probe * Checks.result) option;
  gc_events_lost : int;  (* runtime events the GC pause pass missed *)
}

let reps = 3

(* One operation of [specs], after a compaction so every operation
   starts from the same heap state. *)
let op specs =
  Gc.compact ();
  List.map (fun j -> Exec.run j) specs

let run w ~seed =
  let failures = ref [] and attempted = ref 0 in
  let judge what (r : Checks.result) =
    incr attempted;
    match r with
    | Ok () -> ()
    | Error e -> failures := (what ^ ": " ^ e) :: !failures
  in
  let own = Workloads.operation w ~seed ~traced:false in
  (* [reps] untraced references in the workload's own, one-domain
     configuration; they carry the GC figures, since one domain's
     counters see the whole run. dumbbell_pdes alternates them with
     partitioned references, so the speed-up compares operations run
     side by side. *)
  let pdes = Workloads.pdes_domains w in
  let pairs =
    List.init reps (fun _ ->
        let o = op own in
        ( o,
          Option.map
            (fun domains ->
              op (Workloads.operation ~domains w ~seed ~traced:false))
            pdes ))
  in
  let refs = List.map fst pairs and partitioned = List.filter_map snd pairs in
  let expected = Exec.digests (List.hd refs) in
  List.iter (fun o -> judge "reference" (Exec.check w ~expected o)) refs;
  List.iter
    (fun o -> judge "domains=2 vs domains=1" (Exec.check w ~expected o))
    partitioned;
  let med f l = median (List.map f l) in
  let own_execute = med Exec.execute_s refs in
  let sim_s = Exec.sim_s (List.hd refs) in
  let gc f = med (Exec.sum (fun e -> f e.Exec.gc)) refs in
  let top_heap_mb = Exec.top_heap_mb () in
  (* GC pause time comes from one more untraced one-domain operation,
     the only one run with the runtime's event ring on. *)
  let gc_op =
    Gc.compact ();
    Gc_pause.enable ();
    let o =
      Gc_pause.while_polling (fun () ->
          List.map Exec.run own)
    in
    Gc_pause.disable ();
    o
  in
  judge "gc pause pass" (Exec.check w ~expected gc_op);
  (* One traced pass per category (the tracer is one global ring, so
     these run at one domain). *)
  let traced = Workloads.operation w ~seed ~traced:true in
  let passes =
    List.map
      (fun mask ->
        Gc.compact ();
        let tally = new_tally () in
        let o =
          List.map (fun j -> Exec.run ~observe:(observe tally ~mask) j) traced
        in
        judge
          ("traced " ^ Code.category_name mask)
          (Exec.check w ~expected o);
        (mask, tally, Exec.execute_s o))
      categories
  in
  let count code =
    List.fold_left
      (fun acc (mask, t, _) ->
        if Code.category code = mask then acc + t.codes.(code) else acc)
      0 passes
  in
  let _, sched_tally, _ =
    List.find (fun (m, _, _) -> m = Code.cat_sched) passes
  in
  let dispatches = count Code.sched_dispatch - sched_tally.ticks in
  let live_peak = max 0 (sched_tally.live_peak - 1) in
  let link_tx = count Code.link_tx in
  let per_unit total n = if n > 0 then total *. 1e9 /. float_of_int n else 0. in
  let overhead =
    median (List.map (fun (_, _, ex) -> ex) passes) /. own_execute
  in
  let first = List.hd refs in
  let outcome_sum f =
    float_of_int (List.fold_left (fun a e -> a + f e.Exec.outcome) 0 first)
  in
  let mf_sum f =
    float_of_int
      (List.fold_left
         (fun a e -> List.fold_left (fun a c -> a + f c) a e.Exec.mf)
         0 first)
  in
  let probe = Exec.probe w ~seed in
  let t1_gain =
    match first with
    | [ std; rss ] when w = Workloads.Paper_path ->
        Checks.t1_gain_pct ~standard:std.outcome ~restricted:rss.outcome
    | _ -> 0.
  in
  let n_failed = List.length !failures in
  let wheel_pending = sched_tally.wheel_peak in
  let metrics =
    [
      ("core.of_json_s", med (Exec.sum (fun e -> e.setup.of_json_s)) refs);
      ("core.validate_s", med (Exec.sum (fun e -> e.setup.validate_s)) refs);
      ("core.build_s", med (Exec.sum (fun e -> e.setup.build_s)) refs);
      ("core.execute_s", own_execute);
      ("sim.heap_dispatches_per_sim_s", float_of_int dispatches /. sim_s);
      (* Execute ns per dispatch, not the heap's own cost: charged only
         where the heap carries the run; with timer wheels in play the
         dispatches are too few to mean anything. *)
      ( "sim.ns_per_heap_dispatch",
        if wheel_pending = 0 then per_unit own_execute dispatches else 0. );
      ("sim.heap_live_peak", float_of_int live_peak);
      ("sim.heap_add_pop_ns", heap_add_pop_ns ~depth:live_peak);
      ("sim.heap_arm_cancel_words", heap_arm_cancel_words ~depth:live_peak);
      ("sim.wheel_pending", float_of_int wheel_pending);
      ( "sim.wheel_arm_ns",
        if wheel_pending > 0 then wheel_arm_ns ~population:wheel_pending
        else 0. );
      ("pdes.d1_execute_s", if partitioned <> [] then own_execute else 0.);
      ( "pdes.speedup_d2",
        if partitioned <> [] then own_execute /. med Exec.execute_s partitioned
        else 0. );
      ("netsim.link_tx_per_sim_s", float_of_int link_tx /. sim_s);
      ("netsim.ns_per_link_tx", per_unit own_execute link_tx);
      ("netsim.link_drops", float_of_int (count Code.link_drop));
      ("netsim.ifq_enqueues", float_of_int (count Code.ifq_enqueue));
      ("netsim.ifq_stalls", float_of_int (count Code.ifq_stall));
      ("netsim.nic_tx", float_of_int (count Code.nic_tx));
      ("netsim.router_drops", outcome_sum (fun o -> o.path.router_drops));
      ("tcp.cwnd_updates", float_of_int (count Code.tcp_cwnd));
      ("tcp.retransmits", float_of_int (count Code.tcp_retransmit));
      ("tcp.fast_retransmits", float_of_int (count Code.tcp_fast_retransmit));
      ("tcp.rtos", float_of_int (count Code.tcp_rto));
      ("tcp.send_stalls", float_of_int (count Code.tcp_send_stall));
      ("tcp.on_ack_ns", on_ack_ns ());
      ("control.pid_step_ns", pid_step_ns ());
      ("mf.rows_live", mf_sum (fun c -> c.active));
      ("mf.loss_events", mf_sum (fun c -> c.loss_events));
      ("mf.flow_s", sched_tally.flow_s);
      ( "mf.ns_per_flow_s",
        if sched_tally.flow_s > 0. then own_execute *. 1e9 /. sched_tally.flow_s
        else 0. );
      ( "mf.window_sum_residual_bytes",
        match probe with
        | Some (p, _) -> Float.abs (Checks.residual p)
        | None -> 0. );
      ("gc.minor_words_per_sim_s", gc (fun g -> g.minor_words) /. sim_s);
      ("gc.promoted_words_per_sim_s", gc (fun g -> g.promoted_words) /. sim_s);
      ( "gc.major_collections",
        gc (fun g -> float_of_int g.major_collections) );
      ("gc.top_heap_mb", top_heap_mb);
      ("gc.pause_ms", Exec.sum (fun e -> e.gc.pause_ms) gc_op);
      ("trace.overhead_ratio", overhead);
      ("model.t1_gain_pct", t1_gain);
      ( "failed_share",
        Checks.failed_share ~failed:n_failed ~attempted:!attempted probe );
    ]
  in
  {
    metrics;
    attempted = !attempted;
    failed = n_failed;
    failures = List.rev !failures;
    probe;
    gc_events_lost =
      List.fold_left (fun a e -> a + e.Exec.gc.lost_events) 0 gc_op;
  }
