(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root (it reads BENCHMARK.json there), through
   [python3 perfbench/run.py], which builds it first. With --trace 0 it
   measures the end-to-end metrics for S seconds; with --trace 1 it
   makes the separate traced run that gives the per-layer metrics. It
   prints every metric with its unit, then, as the last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. Exit codes: 0
   measured, 1 a metric came out non-finite or missing, 2 bad
   arguments, 3 a self-test failed. See NOTES.md. *)

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let die code fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit code)
    fmt

(* A metric line for people, and its entry in the result object. *)
let show name value ?(note = "") () =
  let m = Catalog.find name in
  Printf.printf "%-32s %14.6g %-8s %s\n" name value m.unit note

let json_result ~correct ~attempted ~failed ~expected metrics =
  let names l = List.sort compare l in
  if
    names (List.map fst metrics)
    <> names (List.map (fun (m : Catalog.metric) -> m.name) expected)
  then die 1 "the metrics computed differ from the catalog's";
  let entry (name, v) =
    if not (Float.is_finite v) then die 1 "metric %s is not finite (%g)" name v;
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v
      (Catalog.find name).unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map entry metrics))

let print_failures = List.iter (fun f -> Printf.printf "FAILED CHECK: %s\n" f)

let print_probe = function
  | None -> ()
  | Some (p, verdict) ->
      Printf.printf
        "finite-flow probe (150 flows/s x 50 KB, 100 Mbit/s, 60 s): tracked \
         window sum %.0f B, re-summed %.0f B, residual %.0f B, mean cwnd %.1f \
         segments, created %d = completed %d + active %d: %s\n"
        p.Checks.tracked_bytes p.true_bytes (Checks.residual p)
        p.mean_cwnd_segments p.counts.created p.counts.completed
        p.counts.active
        (match verdict with Ok () -> "pass" | Error e -> "FAIL (" ^ e ^ ")")

let end_to_end w ~seed ~seconds =
  let r = E2e.run w ~seed ~seconds in
  let calibration_s = Stats.median r.calibrations in
  let rate = Stats.median r.rates in
  let setup = Stats.median r.setups in
  let quartiles l =
    Printf.sprintf "median of %d (q1 %.6g, q3 %.6g)" (List.length l)
      (Stats.quantile 0.25 l) (Stats.quantile 0.75 l)
  in
  let list l = String.concat " " (List.map (Printf.sprintf "%.4g") l) in
  Printf.printf
    "reference workload: %s s (median %.4g s, reference %.4g s); times and \
     rates below are scaled to the reference speed\n"
    (list r.calibrations) calibration_s Calibration.reference_s;
  show "sim_s_per_wall_s" rate ~note:(quartiles r.rates ^ " operations") ();
  Printf.printf "  per operation: %s\n" (list r.rates);
  show "setup_s" setup ~note:(quartiles r.setups ^ " operations") ();
  show "peak_mem_mb" r.peak_mem_mb
    ~note:(Printf.sprintf "process VmHWM; major heap peak %.4g MB" (Exec.top_heap_mb ()))
    ();
  show "failed_share"
    (Checks.failed_share ~failed:r.failed ~attempted:r.attempted r.probe)
    ~note:
      (Printf.sprintf "%d of %d operations failed a check; probe %s"
         r.failed r.attempted
         (match r.probe with
         | None -> "not run"
         | Some (_, Ok ()) -> "passed"
         | Some (_, Error _) -> "FAILED"))
    ();
  Option.iter
    (fun g -> show "model.t1_gain_pct" g ~note:"restricted over standard; paper: ~40 %" ())
    r.t1_gain_pct;
  print_probe r.probe;
  print_failures r.failures;
  json_result ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed
    ~expected:Catalog.end_to_end
    [
      ("sim_s_per_wall_s", rate);
      ("setup_s", setup);
      ("peak_mem_mb", r.peak_mem_mb);
    ]

let per_layer w ~seed =
  let r = Layers.run w ~seed in
  List.iter (fun (name, v) -> show name v ()) r.metrics;
  if r.gc_events_lost > 0 then
    Printf.printf "gc.pause_ms undercounts: %d runtime events lost\n"
      r.gc_events_lost;
  print_probe r.probe;
  print_failures r.failures;
  json_result ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed
    ~expected:Catalog.per_layer r.metrics

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let set r v = r := Some v in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (set seed), "N workload seed");
      ("--seconds", Arg.Float (set seconds), "S measuring time (untraced run)");
      ("--trace", Arg.Int (set trace), "0|1 untraced end-to-end or traced per-layer run");
    ]
    (fun a -> die 2 "unexpected argument %S\n%s" a usage)
    usage;
  let seed = Option.value !seed ~default:1 in
  (match Selftest.run ~benchmark_json:"BENCHMARK.json" ~seed with
  | Ok () -> ()
  | Error e -> die 3 "self-test failed: %s" e);
  let w =
    match Workloads.of_name !workload with
    | Some w -> w
    | None -> die 2 "unknown workload %S\n%s" !workload usage
  in
  Printf.printf "perfbench: workload %s, seed %d\n%!" !workload seed;
  match (!trace, !seconds) with
  | Some 0, Some s when s > 0. -> end_to_end w ~seed ~seconds:s
  | Some 1, _ -> per_layer w ~seed
  | _ -> die 2 "need --trace 0|1 (and --seconds S > 0 for --trace 0)\n%s" usage
