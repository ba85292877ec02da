let test_counter () =
  let g = Web100.Group.create () in
  let c = Web100.Group.counter g Web100.Kis.pkts_out in
  Web100.Group.Counter.incr c;
  Web100.Group.Counter.incr ~by:5 c;
  Alcotest.(check int) "value" 6 (Web100.Group.Counter.value c);
  (* Same name yields the same counter. *)
  let c' = Web100.Group.counter g Web100.Kis.pkts_out in
  Web100.Group.Counter.incr c';
  Alcotest.(check int) "aliased" 7 (Web100.Group.Counter.value c)

let test_gauge () =
  let g = Web100.Group.create () in
  let cwnd = Web100.Group.gauge g Web100.Kis.cur_cwnd in
  Web100.Group.Gauge.set cwnd 14600.;
  Alcotest.(check (float 0.)) "gauge" 14600. (Web100.Group.Gauge.value cwnd)

let test_kind_mismatch () =
  let g = Web100.Group.create () in
  ignore (Web100.Group.counter g "X");
  Alcotest.check_raises "counter as gauge"
    (Invalid_argument "X is registered as a counter, not a gauge") (fun () ->
      ignore (Web100.Group.gauge g "X"))

let test_read_snapshot () =
  let g = Web100.Group.create ~conn_name:"c1" () in
  Alcotest.(check string) "name" "c1" (Web100.Group.conn_name g);
  Alcotest.(check bool) "missing reads None" true
    (Web100.Group.read g "Nope" = None);
  Web100.Group.Counter.incr ~by:3 (Web100.Group.counter g "B");
  Web100.Group.Gauge.set (Web100.Group.gauge g "A") 1.5;
  Alcotest.(check bool) "read counter" true (Web100.Group.read g "B" = Some 3.);
  Alcotest.(check (list (pair string (float 0.))))
    "snapshot sorted"
    [ ("A", 1.5); ("B", 3.) ]
    (Web100.Group.snapshot g)

let test_kis_names () =
  Alcotest.(check bool) "all nonempty" true
    (List.for_all (fun n -> String.length n > 0) Web100.Kis.all);
  let sorted = List.sort_uniq compare Web100.Kis.all in
  Alcotest.(check int) "no duplicates" (List.length Web100.Kis.all)
    (List.length sorted)

let test_logger () =
  let sched = Sim.Scheduler.create () in
  let g = Web100.Group.create () in
  let c = Web100.Group.counter g Web100.Kis.pkts_out in
  ignore
    (Sim.Scheduler.every sched (Sim.Time.ms 10) (fun () ->
         Web100.Group.Counter.incr c));
  let logger =
    Web100.Logger.start sched ~period:(Sim.Time.ms 25)
      ~vars:[ Web100.Kis.pkts_out; Web100.Kis.cur_cwnd ] g
  in
  Sim.Scheduler.run ~until:(Sim.Time.ms 100) sched;
  Web100.Logger.stop logger;
  let s = Web100.Logger.series logger Web100.Kis.pkts_out in
  Alcotest.(check int) "4 samples in 100ms" 4 (Sim.Stats.Series.length s);
  (* At t=25ms two 10ms ticks have fired. *)
  Alcotest.(check (float 0.)) "first sample value" 2.
    (Sim.Stats.Series.values s).(0);
  Alcotest.(check bool) "unknown series raises" true
    (try
       ignore (Web100.Logger.series logger "nope");
       false
     with Not_found -> true);
  let csv = Web100.Logger.to_csv logger in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv rows" 5 (List.length lines);
  Alcotest.(check string) "csv header" "time_s,PktsOut,CurCwnd"
    (List.hd lines)

let test_logger_duplicate_var () =
  let sched = Sim.Scheduler.create () in
  let g = Web100.Group.create () in
  (* Hashtbl.add would shadow the first series and misalign every CSV
     column after the duplicate; the logger must reject it up front. *)
  Alcotest.check_raises "duplicate var"
    (Invalid_argument "Web100.Logger.start: duplicate var \"PktsOut\"")
    (fun () ->
      ignore
        (Web100.Logger.start sched ~period:(Sim.Time.ms 10)
           ~vars:[ Web100.Kis.pkts_out; Web100.Kis.cur_cwnd; "PktsOut" ]
           g))

let test_logger_csv_alignment () =
  let sched = Sim.Scheduler.create () in
  let g = Web100.Group.create () in
  let a = Web100.Group.counter g "A" in
  let b = Web100.Group.counter g "B" in
  ignore
    (Sim.Scheduler.every sched (Sim.Time.ms 10) (fun () ->
         Web100.Group.Counter.incr a;
         Web100.Group.Counter.incr ~by:100 b));
  let logger =
    Web100.Logger.start sched ~period:(Sim.Time.ms 10) ~vars:[ "A"; "B" ] g
  in
  Sim.Scheduler.run ~until:(Sim.Time.ms 45) sched;
  Web100.Logger.stop logger;
  let lines =
    String.split_on_char '\n' (String.trim (Web100.Logger.to_csv logger))
  in
  Alcotest.(check string) "header" "time_s,A,B" (List.hd lines);
  (* Each row must pair A=k with B=100k — a column shift or a
     per-cell re-read would break the ratio. *)
  List.iteri
    (fun i line ->
      match String.split_on_char ',' line with
      | [ _; va; vb ] ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "row %d B = 100*A" i)
            (100. *. float_of_string va)
            (float_of_string vb)
      | _ -> Alcotest.failf "malformed row %S" line)
    (List.tl lines)

let test_logger_tick_series_invariant () =
  let sched = Sim.Scheduler.create () in
  let g = Web100.Group.create () in
  let vars = [ Web100.Kis.pkts_out; Web100.Kis.cur_cwnd; "X" ] in
  let logger = Web100.Logger.start sched ~period:(Sim.Time.ms 7) ~vars g in
  Sim.Scheduler.run ~until:(Sim.Time.ms 100) sched;
  Web100.Logger.stop logger;
  let csv = Web100.Logger.to_csv logger in
  let rows = List.length (String.split_on_char '\n' (String.trim csv)) - 1 in
  (* Every var's series holds exactly one sample per tick, and the CSV
     emits exactly one row per tick. 7ms into 100ms -> 14 ticks. *)
  Alcotest.(check int) "row per tick" 14 rows;
  List.iter
    (fun v ->
      Alcotest.(check int)
        (v ^ " series length = ticks")
        14
        (Sim.Stats.Series.length (Web100.Logger.series logger v)))
    vars

let test_snapshot_delta () =
  let g = Web100.Group.create () in
  let c = Web100.Group.counter g "PktsOut" in
  Web100.Group.Gauge.set (Web100.Group.gauge g "CurCwnd") 1000.;
  let s1 = Web100.Snapshot.take ~now:(Sim.Time.sec 1) g in
  Web100.Group.Counter.incr ~by:500 c;
  Web100.Group.Gauge.set (Web100.Group.gauge g "CurCwnd") 4000.;
  let s2 = Web100.Snapshot.take ~now:(Sim.Time.sec 3) g in
  Alcotest.(check (option (float 0.))) "value lookup" (Some 0.)
    (Web100.Snapshot.value s1 "PktsOut");
  Alcotest.(check (list (pair string (float 0.))))
    "delta"
    [ ("CurCwnd", 3000.); ("PktsOut", 500.) ]
    (Web100.Snapshot.delta ~older:s1 ~newer:s2);
  Alcotest.(check (float 1e-9)) "rate: 500 pkts over 2 s" 250.
    (Web100.Snapshot.rate ~older:s1 ~newer:s2 "PktsOut");
  Alcotest.(check (float 0.)) "rate of unknown var" 0.
    (Web100.Snapshot.rate ~older:s1 ~newer:s2 "Nope");
  Alcotest.(check bool) "reversed order raises" true
    (try
       ignore (Web100.Snapshot.delta ~older:s2 ~newer:s1);
       false
     with Invalid_argument _ -> true)

let test_snapshot_missing_vars () =
  let g = Web100.Group.create () in
  let s1 = Web100.Snapshot.take ~now:Sim.Time.zero g in
  Web100.Group.Counter.incr (Web100.Group.counter g "New");
  let s2 = Web100.Snapshot.take ~now:(Sim.Time.sec 1) g in
  Alcotest.(check (list (pair string (float 0.))))
    "var appearing mid-flight" [ ("New", 1.) ]
    (Web100.Snapshot.delta ~older:s1 ~newer:s2)

(* A sender creates its whole KIS variable set up front. *)
let duplex ?(loss = 0.) ~ifq ~seed () =
  let sched = Sim.Scheduler.create ~seed () in
  let path =
    Netsim.Topology.Duplex.create sched ~rate:(Sim.Units.mbps 100.)
      ~one_way_delay:(Sim.Time.ms 30) ~ifq_capacity:ifq ~loss_rate:loss ()
  in
  (sched, path, Netsim.Packet.Id_source.create ())

let test_sender_lists_every_kis_var () =
  let _, path, ids = duplex ~ifq:100 ~seed:1 () in
  let sender =
    Tcp.Sender.create ~host:path.Netsim.Topology.Duplex.a
      ~dst:(Netsim.Host.id path.Netsim.Topology.Duplex.b)
      ~flow:1 ~ids ()
  in
  Alcotest.(check (list (pair string (float 0.))))
    "every KIS variable, at 0"
    (List.sort compare (List.map (fun n -> (n, 0.)) Web100.Kis.all))
    (Web100.Group.snapshot (Tcp.Sender.stats sender))

(* The sender's accessors read the same variables its group exports by
   name, after a run that exercises stalls, losses and timeouts. *)
let test_sender_counters_match_group () =
  let sched, path, ids = duplex ~loss:0.01 ~ifq:2 ~seed:1 () in
  let conn =
    Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
      ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ~bytes:2_000_000 ()
  in
  Sim.Scheduler.run ~until:(Sim.Time.sec 30) sched;
  let sender = conn.Tcp.Connection.sender in
  let stats = Tcp.Sender.stats sender in
  List.iter
    (fun (name, accessor) ->
      let v = accessor sender in
      Alcotest.(check bool) (name ^ " happened") true (v > 0);
      Alcotest.(check (option (float 0.))) name
        (Some (float_of_int v))
        (Web100.Group.read stats name))
    [
      (Web100.Kis.send_stall, Tcp.Sender.send_stalls);
      (Web100.Kis.congestion_signals, Tcp.Sender.congestion_signals);
      (Web100.Kis.timeouts, Tcp.Sender.timeouts);
      (Web100.Kis.pkts_retrans, Tcp.Sender.retransmits);
    ]

let suite =
  [
    Alcotest.test_case "snapshot delta" `Quick test_snapshot_delta;
    Alcotest.test_case "snapshot missing vars" `Quick
      test_snapshot_missing_vars;
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "read/snapshot" `Quick test_read_snapshot;
    Alcotest.test_case "KIS names" `Quick test_kis_names;
    Alcotest.test_case "sender lists every KIS variable" `Quick
      test_sender_lists_every_kis_var;
    Alcotest.test_case "sender counters match the group" `Quick
      test_sender_counters_match_group;
    Alcotest.test_case "periodic logger" `Quick test_logger;
    Alcotest.test_case "logger duplicate var" `Quick test_logger_duplicate_var;
    Alcotest.test_case "logger csv alignment" `Quick test_logger_csv_alignment;
    Alcotest.test_case "logger tick/series invariant" `Quick
      test_logger_tick_series_invariant;
  ]
