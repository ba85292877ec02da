(* One execution of a generated spec through the simulator's public
   front door: [Spec.of_json], [validate], [build], then [execute],
   each timed on its own. *)

module Spec = Core.Spec

(* Seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type setup = { of_json_s : float; validate_s : float; build_s : float }

let setup_s s = s.of_json_s +. s.validate_s +. s.build_s

(* GC work done inside [execute] by the calling domain. *)
type gc = {
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  pause_ms : float;  (* 0 unless {!Gc_pause.enable} was called *)
  lost_events : int;  (* runtime events that [pause_ms] misses *)
}

type t = {
  outcome : Spec.outcome;
  mf : Checks.mf_counts list;
  digest : string;
  sim_s : float;
  setup : setup;
  execute_s : float;
  gc : gc;
}

let fail fmt = Printf.ksprintf failwith fmt

(* Parse the generated text, validate and build. The JSON text is
   rendered before the clock starts: the program's input is the text. *)
let set_up json =
  let text = Report.Json.to_string json in
  let t0 = now () in
  let spec =
    match Report.Json.of_string text with
    | Error e -> fail "generated spec does not parse: %s" e
    | Ok j -> (
        match Spec.of_json j with
        | Ok s -> s
        | Error e -> fail "generated spec is rejected: %s" e)
  in
  let t1 = now () in
  Spec.validate spec;
  let t2 = now () in
  let built = Spec.build spec in
  let t3 = now () in
  (spec, built, { of_json_s = t1 -. t0; validate_s = t2 -. t1; build_s = t3 -. t2 })

(* [observe] runs between build and execute and returns a finisher run
   after execute; the execute clock covers [Spec.execute] alone. *)
let run ?(observe = fun _ () -> ()) json =
  let spec, built, setup = set_up json in
  let finish = observe built in
  Gc_pause.reset ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let outcome = Spec.execute built in
  let execute_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let pause_ms = Gc_pause.read_ms () in
  let lost_events = Gc_pause.lost_events () in
  finish ();
  {
    outcome;
    mf = Checks.mf_counts built;
    digest = Checks.digest outcome;
    sim_s = Sim.Time.to_sec spec.Spec.duration;
    setup;
    execute_s;
    gc =
      {
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        pause_ms;
        lost_events;
      };
  }

(* --- operations: the specs of one workload step, run back to back --- *)

type op = t list

let sim_s (op : op) = List.fold_left (fun a e -> a +. e.sim_s) 0. op
let execute_s (op : op) = List.fold_left (fun a e -> a +. e.execute_s) 0. op
let sum f (op : op) = List.fold_left (fun a e -> a +. f e) 0. op

(* The checks every operation passes: each execution's numbers are
   finite and conserve, each digest equals the one [expected] recorded
   for that spec, and the paper pair keeps the paper's shape. *)
let check w ~expected (op : op) =
  let per_exec =
    List.map2
      (fun e d ->
        Checks.all
          [
            Checks.finite e.outcome;
            Checks.conservation e.outcome e.mf;
            Checks.determinism ~expected:d e.digest;
          ])
      op expected
  in
  let shape =
    match (w, op) with
    | Workloads.Paper_path, [ std; rss ] ->
        [ Checks.paper_shape ~standard:std.outcome ~restricted:rss.outcome ]
    | _ -> []
  in
  Checks.all (per_exec @ shape)

let digests (op : op) = List.map (fun e -> e.digest) op

(* The major heap's high-water mark, in MB (2^20 bytes). *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The finite-flow conservation probe, run beside many_flows_1m and
   untimed. It is a check beside the workload, not one of its
   operations: it counts in failed_share, not in the result's
   [failed]. *)
let probe w ~seed =
  match w with
  | Workloads.Many_flows_1m ->
      let _, built, _ = set_up (Workloads.probe_spec ~seed) in
      ignore (Spec.execute built);
      let p = Checks.read_probe built in
      Some (p, Checks.probe_check p)
  | Workloads.Paper_path | Workloads.Dumbbell_pdes -> None
