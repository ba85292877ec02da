let test_determinism () =
  let a = Sim.Rng.of_seed 7 and b = Sim.Rng.of_seed 7 in
  let xs = List.init 64 (fun _ -> Sim.Rng.bits64 a) in
  let ys = List.init 64 (fun _ -> Sim.Rng.bits64 b) in
  Alcotest.(check bool) "identical streams" true (xs = ys)

let test_seed_sensitivity () =
  let a = Sim.Rng.of_seed 7 and b = Sim.Rng.of_seed 8 in
  Alcotest.(check bool) "different seeds differ" true
    (Sim.Rng.bits64 a <> Sim.Rng.bits64 b)

let test_split_independence () =
  let parent = Sim.Rng.of_seed 7 in
  let child = Sim.Rng.split parent in
  let xs = List.init 32 (fun _ -> Sim.Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Sim.Rng.bits64 child) in
  Alcotest.(check bool) "streams diverge" true (xs <> ys)

let test_float_range () =
  let r = Sim.Rng.of_seed 3 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %f" x
  done

let test_float_mean () =
  let r = Sim.Rng.of_seed 3 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.float r
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds () =
  let r = Sim.Rng.of_seed 5 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of range: %d" x
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Sim.Rng.int r 0))

let test_exponential_mean () =
  let r = Sim.Rng.of_seed 11 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential r ~mean:2.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean" true (Float.abs (mean -. 2.5) < 0.1)

let test_pareto_floor () =
  let r = Sim.Rng.of_seed 13 in
  for _ = 1 to 5_000 do
    let x = Sim.Rng.pareto r ~shape:1.5 ~scale:100. in
    if x < 100. then Alcotest.failf "pareto below scale: %f" x
  done

let test_normal_moments () =
  let r = Sim.Rng.of_seed 17 in
  let n = 50_000 in
  let s = Sim.Stats.Summary.create () in
  for _ = 1 to n do
    Sim.Stats.Summary.add s (Sim.Rng.normal r ~mu:10. ~sigma:2.)
  done;
  Alcotest.(check bool) "normal mean" true
    (Float.abs (Sim.Stats.Summary.mean s -. 10.) < 0.1);
  Alcotest.(check bool) "normal sd" true
    (Float.abs (Sim.Stats.Summary.stddev s -. 2.) < 0.1)

let test_shuffle_permutation () =
  let r = Sim.Rng.of_seed 19 in
  let a = Array.init 100 Fun.id in
  Sim.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "still a permutation" true
    (sorted = Array.init 100 Fun.id);
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 100 Fun.id)

let qcheck_uniform_bounds =
  QCheck.Test.make ~name:"uniform stays in [lo,hi)" ~count:300
    QCheck.(pair (float_bound_exclusive 100.) (float_bound_exclusive 100.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b +. 1. in
      let r = Sim.Rng.of_seed 23 in
      let x = Sim.Rng.uniform r ~lo ~hi in
      x >= lo && x < hi)

(* Many_flows derives one seed per flow, so a million-flow set-up
   makes a million calls: they must not box their Int64 arithmetic. *)
let test_derive_seed_no_alloc () =
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    acc := !acc lxor Sim.Rng.derive_seed ~root:42 ~stream:i
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool)
    (Printf.sprintf "10^4 derive_seed calls allocate (%.0f minor words)" words)
    true (words < 256.)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "pareto floor" `Quick test_pareto_floor;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "derive_seed allocates nothing" `Quick
      test_derive_seed_no_alloc;
    QCheck_alcotest.to_alcotest qcheck_uniform_bounds;
  ]
