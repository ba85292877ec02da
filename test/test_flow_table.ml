(* Unit tests for the structure-of-arrays flow table: row lifecycle
   (alloc resets every column, free recycles through the free list),
   the per-row xorshift streams, the congestion-avoidance hooks applied
   by row index, the six-word row, and restoring images written when
   the table also carried a packet-level sender's columns. *)

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
  Ft.set_budget t r 123;
  Ft.set_phase t r 3;
  Alcotest.(check int) "phase written" 3 (Ft.phase t r);
  Ft.set_phase t r 1;
  Alcotest.(check int) "phase rewritten" 1 (Ft.phase t r);
  Ft.free t r;
  Alcotest.(check bool) "freed" false (Ft.is_live t r);
  let r' = Ft.alloc t in
  Alcotest.(check int) "free list reuses the row" r r';
  Alcotest.(check (float 0.)) "cwnd reset" 0. (Ft.cwnd t r');
  Alcotest.(check bool) "ssthresh reset" true (Ft.ssthresh t r' = infinity);
  Alcotest.(check int) "budget unbounded" (-1) (Ft.budget t r');
  Alcotest.(check int) "phase reset" 0 (Ft.phase t r')

let test_growth_and_many_rows () =
  let t = Ft.create ~initial_capacity:2 () in
  let rows = Array.init 1000 (fun _ -> Ft.alloc t) in
  Alcotest.(check int) "all live" 1000 (Ft.in_use t);
  Array.iteri (fun i r -> Ft.set_budget t r i) rows;
  Array.iteri
    (fun i r ->
      if Ft.budget t r <> i then Alcotest.failf "row %d clobbered by growth" i)
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
  Alcotest.(check (float 1e-9)) "halved ssthresh" (5. *. 1500.) (Ft.ssthresh t r)

(* What a table holds, counted from its heap graph: exact, unlike the
   allocation counters, which other domains' statistics can blur. *)
let test_six_words_per_row () =
  let n = 100_000 in
  let words = Obj.reachable_words (Obj.repr (Ft.create ~initial_capacity:n ())) in
  (* Six columns of n elements, plus a header per array and the record. *)
  let bound = (6 * n) + 64 in
  if words > bound then
    Alcotest.failf "%d rows hold %d words (> %d)" n words bound

(* An image as the table wrote it while it also held a packet-level
   sender's state: its columns beside the six kept here, latch bits
   above the phase, and the free list threaded through [una]. Rows 0
   and 2 are live, 1 -> 3 is the free list. *)
let legacy_image () =
  let w = Sim.Snapshot.writer () in
  let ints name a = Sim.Snapshot.put_int_array w ("ft." ^ name) a in
  Sim.Snapshot.put_int w "ft.cap" 4;
  Sim.Snapshot.put_int w "ft.in_use" 2;
  Sim.Snapshot.put_int w "ft.free_head" 1;
  Sim.Snapshot.put_float_array w "ft.cwnd" [| 3000.; 0.; 4500.; 0. |];
  Sim.Snapshot.put_float_array w "ft.ssthresh" [| infinity; 0.; 9000.; 0. |];
  ints "una" [| 0; 3; 0; -1 |];
  List.iter
    (fun name -> ints name [| 7; 0; 9; 0 |])
    [
      "nxt"; "rwnd"; "dupacks"; "recover"; "reaction_mark"; "bytes_sent";
      "acct"; "next_pace_ns"; "last_send_ns";
    ];
  ints "budget" [| 5000; -1; -1; -1 |];
  ints "rng" [| 11; 1; 22; 1 |];
  ints "timer" [| 40; -1; 41; -1 |];
  (* phase 1 + stalled bit, free, phase 2 + completed bit, free *)
  ints "flags" [| 1 lor (1 lsl 2); -1; 2 lor (1 lsl 3); -1 |];
  Sim.Snapshot.of_string (Sim.Snapshot.to_string w)

let test_restore_legacy_image () =
  let t = Ft.create () in
  Ft.restore t ~prefix:"ft." (legacy_image ());
  Alcotest.(check int) "capacity" 4 (Ft.capacity t);
  Alcotest.(check int) "in_use" 2 (Ft.in_use t);
  Alcotest.(check (list bool)) "live rows" [ true; false; true; false ]
    (List.init 4 (Ft.is_live t));
  Alcotest.(check (float 0.)) "cwnd" 4500. (Ft.cwnd t 2);
  Alcotest.(check (float 0.)) "ssthresh" 9000. (Ft.ssthresh t 2);
  Alcotest.(check int) "budget" 5000 (Ft.budget t 0);
  Alcotest.(check (list int)) "phase without the latch bits" [ 1; 2 ]
    [ Ft.phase t 0; Ft.phase t 2 ];
  let fresh = Ft.create () in
  let r = Ft.alloc fresh in
  Ft.seed_rng fresh r 11;
  Alcotest.(check int) "rng stream resumes" (Ft.rng_next fresh r)
    (Ft.rng_next t 0);
  (* The restored free list hands out rows 1 then 3, then grows. *)
  Alcotest.(check (list int)) "free-list order" [ 1; 3; 4 ]
    (List.init 3 (fun _ -> Ft.alloc t));
  (* And a table restored from it round-trips through today's format. *)
  let w = Sim.Snapshot.writer () in
  Ft.save t ~prefix:"ft." w;
  let t' = Ft.create () in
  Ft.restore t' ~prefix:"ft." (Sim.Snapshot.of_string (Sim.Snapshot.to_string w));
  Alcotest.(check int) "round-trip in_use" (Ft.in_use t) (Ft.in_use t');
  Alcotest.(check (float 0.)) "round-trip cwnd" 4500. (Ft.cwnd t' 2);
  Alcotest.(check int) "round-trip next row" (Ft.alloc t) (Ft.alloc t')

let suite =
  [
    Alcotest.test_case "alloc resets a recycled row" `Quick test_alloc_reset;
    Alcotest.test_case "growth preserves rows" `Quick test_growth_and_many_rows;
    Alcotest.test_case "per-row xorshift streams" `Quick test_rng_streams;
    Alcotest.test_case "cong-avoid hooks apply by index" `Quick test_ca_hooks;
    Alcotest.test_case "a row is six words" `Quick test_six_words_per_row;
    Alcotest.test_case "restores images with the sender's columns" `Quick
      test_restore_legacy_image;
  ]
