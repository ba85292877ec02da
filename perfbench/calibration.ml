(* A fixed, stdlib-only reference workload timed alongside the
   operations of a run, so wall-clock rates can be scaled to a
   reference machine speed.

   The host this benchmark was written on drifts by up to ±20 % in speed
   over tens of seconds (other tenants share its cores), which moves a
   run's median rate as much as any code change would. The reference
   workload shares nothing with the simulator — hashing, a random walk
   over a 1 MB array, short-lived allocation and a sort — so a change to
   the repository cannot move it; only the machine can. *)

(* Seconds the reference workload takes at the reference speed: the
   median measured on a 2-vCPU Xeon VM at 2.1 GHz when the benchmark
   was defined. Scaling by [reference_s / measured] reports every time
   as it would read on that machine. *)
let reference_s = 0.05

let table = Array.init 131_072 (fun i -> (i * 7919) land 0xffff)

let work () =
  let x = ref 12345 and acc = ref 0 in
  let step () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let h = Hashtbl.create 4096 in
  for i = 1 to 400_000 do
    Hashtbl.replace h (step () land 0xfff) (i, float_of_int i)
  done;
  for _ = 1 to 5_000_000 do
    let k = step () land 131_071 in
    acc := !acc + table.(k);
    table.(k lxor 1) <- !acc land 0xffff
  done;
  let l = List.init 20_000 (fun _ -> step () land 0xfffff) in
  acc := !acc + List.hd (List.sort compare l) + Hashtbl.length h;
  ignore (Sys.opaque_identity !acc)

(* Seconds one pass of the reference workload took. *)
let time () =
  let t0 = Exec.now () in
  work ();
  Exec.now () -. t0

(* A rate measured while the reference workload took [calibration_s],
   and a time, as they would read at the reference speed. *)
let scale_rate ~calibration_s rate = rate *. calibration_s /. reference_s
let scale_time ~calibration_s t = t *. reference_s /. calibration_s
