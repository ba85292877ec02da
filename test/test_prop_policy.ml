(* qcheck invariants over every registered congestion-control policy:
   whatever the ACK/loss/RTO sequence, the window arithmetic keeps the
   window at or above one MSS; a loss-free round of ACKs at the base
   RTT never shrinks the window; and loss/RTO reactions never raise
   ssthresh or the window. End-to-end, a random lossy path must leave
   the sender's flight inside the advertised receive window. *)

open QCheck2

let mss = Tcp.Config.default.Tcp.Config.mss
let mss_f = float_of_int mss

(* Suites are built at module-init time, before any test mutates the
   registry: this is exactly the built-in zoo. *)
let policy_names = Tcp.Policy.names ()

let fresh name =
  match Tcp.Policy.by_name name with
  | Ok p -> p
  | Error e -> invalid_arg e

(* A benign sender view: empty IFQ, cwnd-limited flight, flat RTT at
   the base. Time advances 2 ms per ACK so sampled controllers step. *)
let benign_view ~now ~cwnd ~min_rtt : Tcp.Slow_start.view =
  {
    Tcp.Slow_start.now = (fun () -> !now);
    mss;
    cwnd = (fun () -> !cwnd);
    ssthresh = (fun () -> infinity);
    flight = (fun () -> int_of_float !cwnd);
    snd_una = (fun () -> 0);
    snd_nxt = (fun () -> int_of_float !cwnd);
    srtt = (fun () -> !min_rtt);
    min_rtt = (fun () -> !min_rtt);
    ifq_occupancy = (fun () -> 0);
    ifq_capacity = (fun () -> 100);
  }

type event = Ack of int | Loss | Rto

let gen_event =
  Gen.(
    frequency
      [
        (8, map (fun n -> Ack (n * mss)) (int_range 1 3));
        (2, return Loss);
        (1, return Rto);
      ])

let gen_scenario =
  Gen.(
    triple (oneofl policy_names)
      (list_size (int_range 1 120) gen_event)
      (int_range 2 200))

let print_scenario =
  Print.(
    triple string
      (list (function
        | Ack n -> Printf.sprintf "ack:%d" n
        | Loss -> "loss"
        | Rto -> "rto"))
      int)

(* Drive the congestion-avoidance record through an arbitrary event
   sequence from an arbitrary starting window, mirroring the sender's
   dispatch; the window must never fall below one MSS (the policies'
   shared floor is in fact two). *)
let window_floor =
  Test.make ~name:"cwnd never falls below one MSS" ~count:400
    ~print:print_scenario gen_scenario
    (fun (name, events, start_segments) ->
      let p = fresh name in
      let cc = p.Tcp.Policy.cong_avoid in
      let cwnd = ref (float_of_int start_segments *. mss_f) in
      let now = ref Sim.Time.zero in
      List.for_all
        (fun ev ->
          now := Sim.Time.add !now (Sim.Time.ms 2);
          (match ev with
          | Ack newly_acked ->
              cwnd :=
                cc.Tcp.Cong_avoid.on_ack ~newly_acked ~cwnd:!cwnd ~mss
                  ~srtt:(Some (Sim.Time.ms 60))
                  ~min_rtt:(Some (Sim.Time.ms 60))
                  ~now:!now
          | Loss ->
              let _ssthresh, next =
                cc.Tcp.Cong_avoid.on_loss ~cwnd:!cwnd
                  ~flight:(int_of_float !cwnd) ~mss ~now:!now
              in
              cwnd := next
          | Rto ->
              let _ssthresh, next =
                cc.Tcp.Cong_avoid.on_rto ~cwnd:!cwnd
                  ~flight:(int_of_float !cwnd) ~mss
              in
              cwnd := next);
          !cwnd >= mss_f)
        events)

(* Loss and RTO reactions never raise the operating point: both the
   returned ssthresh and the next window stay at or below the window
   the event found (once above the 2-MSS floor). *)
let loss_never_raises =
  Test.make ~name:"ssthresh moves only downward on loss events" ~count:400
    ~print:Print.(pair string int)
    Gen.(pair (oneofl policy_names) (int_range 4 10_000))
    (fun (name, segments) ->
      let p = fresh name in
      let cc = p.Tcp.Policy.cong_avoid in
      let cwnd = float_of_int segments *. mss_f in
      let flight = int_of_float cwnd in
      let s1, c1 = cc.Tcp.Cong_avoid.on_loss ~cwnd ~flight ~mss ~now:Sim.Time.zero in
      let s2, c2 = cc.Tcp.Cong_avoid.on_rto ~cwnd ~flight ~mss in
      s1 <= cwnd && c1 <= cwnd && s2 <= cwnd && c2 <= cwnd
      && s1 >= 0. && s2 >= 0.)

(* A loss-free round of ACKs on an uncongested path (empty IFQ, RTT at
   the base) never shrinks the window, in either phase. *)
let loss_free_monotone =
  Test.make ~name:"loss-free round keeps cwnd monotone" ~count:200
    ~print:Print.(triple string int int)
    Gen.(triple (oneofl policy_names) (int_range 2 64) (int_range 4 80))
    (fun (name, start_segments, acks) ->
      let p = fresh name in
      let ss = p.Tcp.Policy.slow_start in
      let cc = p.Tcp.Policy.cong_avoid in
      let now = ref Sim.Time.zero in
      let min_rtt = ref (Some (Sim.Time.ms 60)) in
      (* slow-start phase, from the connection's natural initial window
         (the restricted PID commands an absolute trajectory: dropped
         into an arbitrarily large window it would rightly pull the
         window back toward its ramp) *)
      let cwnd = ref (2. *. mss_f) in
      let view = benign_view ~now ~cwnd ~min_rtt in
      let ok_ss = ref true in
      for _ = 1 to acks do
        now := Sim.Time.add !now (Sim.Time.ms 2);
        let d =
          ss.Tcp.Slow_start.on_ack view ~newly_acked:mss
            ~rtt_sample:(Some (Sim.Time.ms 60))
        in
        if d.Tcp.Slow_start.cwnd_delta < -1e-9 then ok_ss := false;
        cwnd := !cwnd +. Float.max 0. d.Tcp.Slow_start.cwnd_delta
      done;
      (* congestion-avoidance phase *)
      let ca = ref (float_of_int start_segments *. mss_f) in
      let ok_ca = ref true in
      for _ = 1 to acks do
        now := Sim.Time.add !now (Sim.Time.ms 2);
        let next =
          cc.Tcp.Cong_avoid.on_ack ~newly_acked:mss ~cwnd:!ca ~mss
            ~srtt:(Some (Sim.Time.ms 60))
            ~min_rtt:(Some (Sim.Time.ms 60))
            ~now:!now
        in
        if next < !ca -. 1e-9 then ok_ca := false;
        ca := next
      done;
      !ok_ss && !ok_ca)

(* End-to-end: on a random lossy duplex path the sender must keep its
   un-SACKed flight inside the receiver's advertised window and leave
   the connection at or above the one-segment loss window (an RTO near
   the end of the run legitimately collapses cwnd to one MSS). *)
let flight_within_rcv_wnd =
  Test.make ~name:"flight stays within the advertised window" ~count:20
    ~print:Print.(triple string int (pair int int))
    Gen.(
      triple (oneofl policy_names) (int_range 1 1000)
        (pair (int_range 0 3) (int_range 8 64)))
    (fun (name, seed, (loss_pct, rcv_segments)) ->
      let p = fresh name in
      let sched = Sim.Scheduler.create ~seed () in
      let path =
        Netsim.Topology.Duplex.create sched ~rate:(Sim.Units.mbps 100.)
          ~one_way_delay:(Sim.Time.ms 10) ~ifq_capacity:100
          ~loss_rate:(float_of_int loss_pct /. 100.)
          ()
      in
      let ids = Netsim.Packet.Id_source.create () in
      let rcv_wnd = rcv_segments * mss in
      let config = { Tcp.Config.default with Tcp.Config.rcv_wnd } in
      let conn =
        Tcp.Connection.establish ~src:path.Netsim.Topology.Duplex.a
          ~dst:path.Netsim.Topology.Duplex.b ~flow:1 ~ids ~config
          ~slow_start:p.Tcp.Policy.slow_start
          ~cong_avoid:p.Tcp.Policy.cong_avoid ()
      in
      let sender = conn.Tcp.Connection.sender in
      let ok = ref true in
      ignore
        (Sim.Scheduler.every sched (Sim.Time.ms 5) (fun () ->
             if Tcp.Sender.flight sender > rcv_wnd then ok := false));
      Sim.Scheduler.run ~until:(Sim.Time.sec 3) sched;
      !ok
      && Tcp.Sender.cwnd sender >= mss_f
      && Tcp.Sender.bytes_acked sender > 0)

(* The batched and in-place hooks against the by-value ones: for every
   registered policy, one [on_acks ~acks:n] call on a fresh instance
   equals n [~acks:1] calls on a second fresh instance and n [on_ack]
   calls on a third, bit for bit; a loss after those ACKs then leaves
   the same (ssthresh, cwnd) whether applied by [on_loss_at] or by
   [on_loss]. *)
let batched_hooks_match_single_acks =
  let gen =
    Gen.(
      pair
        (triple (oneofl policy_names) (int_range 1 64) (int_range 500 9000))
        (triple (float_range 1. 1000.)
           (pair (opt (int_range 1 500)) (opt (int_range 1 500)))
           (int_range 0 100_000)))
  in
  let print ((name, n, mss), (cwnd_seg, (srtt, min_rtt), now)) =
    let ms = Print.(option int) in
    Printf.sprintf "%s n=%d mss=%d cwnd=%g seg srtt=%s min_rtt=%s now=%d ms"
      name n mss cwnd_seg (ms srtt) (ms min_rtt) now
  in
  Test.make ~name:"batched on_acks and on_loss_at match the single hooks"
    ~count:500 ~print gen
    (fun ((name, n, mss), (cwnd_seg, (srtt, min_rtt), now)) ->
      let ms = Option.map Sim.Time.ms in
      let srtt = ms srtt and min_rtt = ms min_rtt and now = Sim.Time.ms now in
      let cwnd0 = cwnd_seg *. float_of_int mss in
      let newly_acked = mss in
      let batched = (fresh name).Tcp.Policy.cong_avoid in
      let single = (fresh name).Tcp.Policy.cong_avoid in
      let by_value = (fresh name).Tcp.Policy.cong_avoid in
      let wb = [| cwnd0 |] and sb = [| infinity |] in
      batched.on_acks ~acks:n ~newly_acked ~mss ~srtt ~min_rtt ~now wb 0;
      let ws = [| cwnd0 |] in
      for _ = 1 to n do
        single.on_acks ~acks:1 ~newly_acked ~mss ~srtt ~min_rtt ~now ws 0
      done;
      let wv = ref cwnd0 in
      for _ = 1 to n do
        wv := by_value.on_ack ~newly_acked ~cwnd:!wv ~mss ~srtt ~min_rtt ~now
      done;
      let bits = Int64.bits_of_float in
      let acked = bits wb.(0) in
      let flight = int_of_float wb.(0) in
      batched.on_loss_at ~flight ~mss ~now ~cwnd:wb ~ssthresh:sb 0;
      let sv, cv = by_value.on_loss ~cwnd:!wv ~flight ~mss ~now in
      acked = bits ws.(0)
      && acked = bits !wv
      && bits wb.(0) = bits cv
      && bits sb.(0) = bits sv)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      window_floor;
      loss_never_raises;
      loss_free_monotone;
      flight_within_rcv_wnd;
      batched_hooks_match_single_acks;
    ]
