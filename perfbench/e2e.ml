(* The untraced run: end-to-end metrics for one workload.

   Closed loop, one operation at a time on one process: the next
   operation starts when the previous one returns. Each operation runs
   the workload's specs through of_json, validate, build and execute;
   the heap is compacted between operations (outside every clock) so
   each starts from the same heap state. A first operation warms up and
   records the digests every later one must reproduce; it is checked
   but not timed. *)

type result = {
  rates : float list;
      (* simulated s per execute wall s, per operation, at reference speed *)
  setups : float list;
      (* of_json + validate + build s of each operation's specs, at
         reference speed *)
  calibrations : float list;  (* reference-workload seconds, in run order *)
  peak_mem_mb : float;
  attempted : int;
  failed : int;
  failures : string list;
  t1_gain_pct : float option;
  probe : (Checks.probe * Checks.result) option;
}

(* A run times at least this many operations, however long each takes,
   so the medians of rate and set-up time rest on several samples. The
   peak resident set is read after this many, since it creeps up with
   each operation and must not depend on how many fit in a run. *)
let min_ops = 5

(* Peak resident set of the process, from Linux's VmHWM; the major
   heap's high-water mark where /proc is unavailable. *)
let peak_mem_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf
                  (String.sub l 6 (String.length l - 6))
                  " %f kB"
                  (fun kb -> Some (kb /. 1024.))
            | Some _ -> scan ()
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with Some mb -> mb | None -> Exec.top_heap_mb ()

let run w ~seed ~seconds =
  let specs = Workloads.operation w ~seed ~traced:false in
  let op () =
    Gc.compact ();
    List.map (fun j -> Exec.run j) specs
  in
  let warm = op () in
  let expected = Exec.digests warm in
  let failures = ref [] and attempted = ref 0 in
  let judge o =
    incr attempted;
    match Exec.check w ~expected o with
    | Ok () -> ()
    | Error e -> failures := e :: !failures
  in
  judge warm;
  let rates = ref [] and setups = ref [] and calibrations = ref [] in
  (* The reference workload runs on a compacted heap, so what an
     operation leaves behind cannot lengthen it. *)
  let calibrate () =
    Gc.compact ();
    let c = Calibration.time () in
    calibrations := c :: !calibrations;
    c
  in
  let before = ref (calibrate ()) and peak = ref 0. in
  let deadline = Exec.now () +. seconds in
  while Exec.now () < deadline || List.length !rates < min_ops do
    let o = op () in
    let after = calibrate () in
    judge o;
    (* Each operation is scaled by the reference workload timed on
       either side of it. *)
    let calibration_s = (!before +. after) /. 2. in
    rates :=
      Calibration.scale_rate ~calibration_s (Exec.sim_s o /. Exec.execute_s o)
      :: !rates;
    setups :=
      Calibration.scale_time ~calibration_s
        (Exec.sum (fun e -> Exec.setup_s e.setup) o)
      :: !setups;
    if List.length !rates = min_ops then peak := peak_mem_mb ();
    before := after
  done;
  let t1_gain_pct =
    match (w, warm) with
    | Workloads.Paper_path, [ std; rss ] ->
        Some (Checks.t1_gain_pct ~standard:std.outcome ~restricted:rss.outcome)
    | _ -> None
  in
  let probe = Exec.probe w ~seed in
  {
    rates = List.rev !rates;
    calibrations = List.rev !calibrations;
    setups = List.rev !setups;
    peak_mem_mb = !peak;
    attempted = !attempted;
    failed = List.length !failures;
    failures = List.rev !failures;
    t1_gain_pct;
    probe;
  }
