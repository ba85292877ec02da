(* Every metric the benchmark prints, with its unit and direction.
   BENCHMARK.json must list exactly these (the self-test compares). *)

type metric = { name : string; unit : string; better : [ `Higher | `Lower ] }

let m name unit better = { name; unit; better }

(* Untraced runs: what a user of the simulator sees. *)
let end_to_end =
  [
    m "sim_s_per_wall_s" "ratio" `Higher;
    m "setup_s" "s" `Lower;
    m "peak_mem_mb" "MB" `Lower;
  ]

(* The traced run: one layer at a time, measured from outside the
   library through its public entry points. *)
let per_layer =
  [
    m "core.of_json_s" "s" `Lower;
    m "core.validate_s" "s" `Lower;
    m "core.build_s" "s" `Lower;
    m "core.execute_s" "s" `Lower;
    m "sim.heap_dispatches_per_sim_s" "1/s" `Lower;
    (* The three ns_per_* metrics divide the whole one-domain execute
       time by a count: execute ns per dispatch, per traced link tx and
       per flow-second. Any layer's speed-up moves them; the isolated
       loops (heap_add_pop_ns, wheel_arm_ns, on_ack_ns, pid_step_ns)
       are the layer costs. *)
    m "sim.ns_per_heap_dispatch" "ns" `Lower;
    m "sim.heap_live_peak" "count" `Lower;
    m "sim.heap_add_pop_ns" "ns" `Lower;
    m "sim.heap_arm_cancel_words" "words" `Lower;
    m "sim.wheel_pending" "count" `Lower;
    m "sim.wheel_arm_ns" "ns" `Lower;
    m "pdes.d1_execute_s" "s" `Lower;
    m "pdes.speedup_d2" "ratio" `Higher;
    m "netsim.link_tx_per_sim_s" "1/s" `Lower;
    m "netsim.ns_per_link_tx" "ns" `Lower;
    m "netsim.link_drops" "count" `Lower;
    m "netsim.ifq_enqueues" "count" `Lower;
    m "netsim.ifq_stalls" "count" `Lower;
    m "netsim.nic_tx" "count" `Lower;
    m "netsim.router_drops" "count" `Lower;
    m "tcp.cwnd_updates" "count" `Lower;
    m "tcp.retransmits" "count" `Lower;
    m "tcp.fast_retransmits" "count" `Lower;
    m "tcp.rtos" "count" `Lower;
    m "tcp.send_stalls" "count" `Lower;
    m "tcp.on_ack_ns" "ns" `Lower;
    m "control.pid_step_ns" "ns" `Lower;
    m "mf.rows_live" "count" `Lower;
    m "mf.loss_events" "count" `Lower;
    m "mf.flow_s" "s" `Higher;
    m "mf.ns_per_flow_s" "ns" `Lower;
    m "mf.window_sum_residual_bytes" "bytes" `Lower;
    m "gc.minor_words_per_sim_s" "words/s" `Lower;
    m "gc.promoted_words_per_sim_s" "words/s" `Lower;
    m "gc.major_collections" "count" `Lower;
    m "gc.top_heap_mb" "MB" `Lower;
    m "gc.pause_ms" "ms" `Lower;
    m "trace.overhead_ratio" "ratio" `Lower;
    m "model.t1_gain_pct" "%" `Higher;
    m "failed_share" "share" `Lower;
  ]

let better_name = function `Higher -> "higher" | `Lower -> "lower"

let find name =
  List.find (fun x -> x.name = name) (end_to_end @ per_layer)
