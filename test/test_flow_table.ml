(* Unit tests for the structure-of-arrays flow table: row lifecycle
   (alloc resets every column, free recycles through the free list),
   the per-row xorshift streams, and the congestion-avoidance hooks
   applied by row index. *)

module Ft = Tcp.Flow_table

let test_alloc_reset () =
  let t = Ft.create ~initial_capacity:2 () in
  let r = Ft.alloc t in
  Alcotest.(check bool) "live" true (Ft.is_live t r);
  Alcotest.(check int) "in_use" 1 (Ft.in_use t);
  (* Dirty every column, free, re-alloc: the recycled row must come
     back pristine. *)
  Ft.set_cwnd t r 9999.;
  Ft.set_ssthresh t r 7.;
  Ft.set_una t r 5;
  Ft.set_budget t r 123;
  Ft.set_phase t r 3;
  Ft.set_stalled t r true;
  Ft.set_timer t r 42;
  Ft.free t r;
  Alcotest.(check bool) "freed" false (Ft.is_live t r);
  let r' = Ft.alloc t in
  Alcotest.(check int) "free list reuses the row" r r';
  Alcotest.(check (float 0.)) "cwnd reset" 0. (Ft.cwnd t r');
  Alcotest.(check bool) "ssthresh reset" true (Ft.ssthresh t r' = infinity);
  Alcotest.(check int) "una reset" 0 (Ft.una t r');
  Alcotest.(check int) "budget unbounded" (-1) (Ft.budget t r');
  Alcotest.(check int) "phase reset" 0 (Ft.phase t r');
  Alcotest.(check bool) "stalled reset" false (Ft.stalled t r');
  Alcotest.(check int) "timer none" (-1) (Ft.timer t r')

let test_growth_and_many_rows () =
  let t = Ft.create ~initial_capacity:2 () in
  let rows = Array.init 1000 (fun _ -> Ft.alloc t) in
  Alcotest.(check int) "all live" 1000 (Ft.in_use t);
  Array.iteri (fun i r -> Ft.set_una t r i) rows;
  Array.iteri
    (fun i r ->
      if Ft.una t r <> i then Alcotest.failf "row %d clobbered by growth" i)
    rows;
  Array.iter (fun r -> Ft.free t r) rows;
  Alcotest.(check int) "all freed" 0 (Ft.in_use t)

let test_rng_streams () =
  let t = Ft.create ~initial_capacity:4 () in
  let a = Ft.alloc t and b = Ft.alloc t in
  Ft.seed_rng t a 42;
  Ft.seed_rng t b 42;
  let xs = List.init 5 (fun _ -> Ft.rng_next t a) in
  let ys = List.init 5 (fun _ -> Ft.rng_next t b) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  Ft.seed_rng t b 43;
  let zs = List.init 5 (fun _ -> Ft.rng_next t b) in
  Alcotest.(check bool) "different seed diverges" true (xs <> zs);
  (* The all-zero seed must not produce the degenerate all-zero
     stream. *)
  Ft.seed_rng t a 0;
  Alcotest.(check bool) "zero seed remapped" true (Ft.rng_next t a <> 0);
  for _ = 1 to 1000 do
    let f = Ft.rng_float t a in
    if not (f >= 0. && f < 1.) then Alcotest.failf "rng_float out of range: %g" f
  done

let test_ca_hooks () =
  let t = Ft.create ~initial_capacity:2 () in
  let r = Ft.alloc t in
  let mss = 1500 in
  let cc = Tcp.Cong_avoid.reno () in
  Ft.set_cwnd t r (float_of_int (10 * mss));
  Ft.ca_on_ack t r cc ~acks:1 ~newly_acked:mss ~mss ~srtt:None ~min_rtt:None
    ~now:Sim.Time.zero;
  let expected = (10. *. 1500.) +. (1500. *. 1500. /. (10. *. 1500.)) in
  Alcotest.(check (float 1e-9)) "reno additive increase via the row" expected
    (Ft.cwnd t r);
  Ft.ca_on_loss t r cc ~flight:(10 * mss) ~mss ~now:Sim.Time.zero;
  Alcotest.(check (float 1e-9)) "halved cwnd" (5. *. 1500.) (Ft.cwnd t r);
  Alcotest.(check (float 1e-9)) "halved ssthresh" (5. *. 1500.) (Ft.ssthresh t r);
  Ft.ca_on_rto t r cc ~flight:(4 * mss) ~mss;
  Alcotest.(check (float 1e-9)) "rto collapses to one mss" 1500. (Ft.cwnd t r);
  Alcotest.(check (float 1e-9)) "rto ssthresh floored" (2. *. 1500.)
    (Ft.ssthresh t r)

let test_flag_bits_independent () =
  let t = Ft.create ~initial_capacity:2 () in
  let r = Ft.alloc t in
  Ft.set_phase t r 3;
  Ft.set_stalled t r true;
  Ft.set_completed t r true;
  Ft.set_started t r true;
  Ft.set_cwr_pending t r true;
  Alcotest.(check int) "phase survives flag writes" 3 (Ft.phase t r);
  Ft.set_phase t r 1;
  Alcotest.(check bool) "stalled survives phase write" true (Ft.stalled t r);
  Alcotest.(check bool) "completed" true (Ft.completed t r);
  Alcotest.(check bool) "started" true (Ft.started t r);
  Alcotest.(check bool) "cwr" true (Ft.cwr_pending t r);
  Ft.set_stalled t r false;
  Alcotest.(check bool) "clearing one flag keeps others" true (Ft.completed t r);
  Alcotest.(check int) "and the phase" 1 (Ft.phase t r)

let suite =
  [
    Alcotest.test_case "alloc resets a recycled row" `Quick test_alloc_reset;
    Alcotest.test_case "growth preserves rows" `Quick test_growth_and_many_rows;
    Alcotest.test_case "per-row xorshift streams" `Quick test_rng_streams;
    Alcotest.test_case "cong-avoid hooks apply by index" `Quick test_ca_hooks;
    Alcotest.test_case "phase and flag bits are independent" `Quick
      test_flag_bits_independent;
  ]
