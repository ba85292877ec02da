(* The benchmark's workloads, as generated spec JSON.

   Every spec the benchmark runs is produced here from the workload
   seed and handed to the program as JSON text, so the simulator sees
   only the generated input ({!Core.Spec.of_json} is part of the timed
   set-up). The seed goes into the spec's ["seed"] field and nowhere
   else. *)

module J = Report.Json

type t = Paper_path | Dumbbell_pdes | Many_flows_1m

let all = [ Paper_path; Dumbbell_pdes; Many_flows_1m ]

let name = function
  | Paper_path -> "paper_path"
  | Dumbbell_pdes -> "dumbbell_pdes"
  | Many_flows_1m -> "many_flows_1m"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Every workload is timed end to end on one scheduler. dumbbell_pdes's
   traced run also runs it partitioned at this many domains, for the
   pdes layer's figures: on a shared two-vCPU host a two-domain rate
   follows the other tenants, not the program (see NOTES.md). *)
let pdes_domains = function
  | Dumbbell_pdes -> Some 2
  | Paper_path | Many_flows_1m -> None

let num f = J.Number f
let int i = J.Number (float_of_int i)
let str s = J.String s

let bulk = J.Obj [ ("kind", str "bulk"); ("bytes", J.Null) ]

let flow ?start_at ~label ~pair ~slow_start workload =
  J.Obj
    ([ ("label", str label); ("pair", int pair) ]
    @ (match start_at with Some s -> [ ("start_at_s", num s) ] | None -> [])
    @ [ ("slow_start", str slow_start); ("workload", workload) ])

let spec ~name ~seed ~duration_s ~domains ~traced ~topology ~flows =
  J.Obj
    [
      ("name", str name);
      ("seed", str (string_of_int seed));
      ("duration_s", num duration_s);
      ("sample_period_s", num 0.25);
      ("record_series", J.Bool true);
      ("record_trace", J.Bool traced);
      ("trace_capacity", int 65536);
      ("domains", int domains);
      ("topology", topology);
      ("flows", J.List flows);
    ]

(* The paper's duplex path: 100 Mbit/s, 60 ms RTT, a 100-packet IFQ,
   one bulk flow, 60 s with series at the Fig. 1 period (250 ms). *)
let paper_path_spec ?(duration_s = 60.) ~seed ~traced slow_start =
  spec ~name:("paper-path-" ^ slow_start) ~seed ~duration_s ~domains:1
    ~traced
    ~topology:
      (J.Obj
         [
           ("kind", str "duplex");
           ("rate_mbps", num 100.);
           ("one_way_delay_s", num 0.03);
           ("ifq_capacity", int 100);
         ])
    ~flows:[ flow ~label:slow_start ~pair:0 ~slow_start bulk ]

let multi_dumbbell ~bottleneck_mbps ~bottleneck_delay_s ~buffer_packets ~red
    ~cross_pairs =
  J.Obj
    ([
       ("kind", str "dumbbell_of_dumbbells");
       ("segments", int 4);
       ("pairs", int 2);
       ("access_rate_mbps", num 1000.);
       ("access_delay_s", num 0.001);
       ("bottleneck_rate_mbps", num bottleneck_mbps);
       ("bottleneck_delay_s", num bottleneck_delay_s);
       ("core_rate_mbps", num 400.);
       ("core_delay_s", num 0.005);
       ("buffer_packets", int buffer_packets);
       ("ifq_capacity", int 100);
       ("cross_pairs", int cross_pairs);
     ]
    @ match red with None -> [] | Some r -> [ ("red", r) ])

(* examples/dumbbell_of_dumbbells.json: two local bulk flows per
   segment (the second starting late) and three boundary-crossing
   40 MB transfers, 10 s. *)
let dumbbell_spec ~seed ~traced ~domains =
  let cross label pair slow_start =
    flow ~label ~pair ~slow_start
      (J.Obj [ ("kind", str "bulk"); ("bytes", int 40_000_000) ])
  in
  spec ~name:"dumbbell-of-dumbbells" ~seed ~duration_s:10. ~domains ~traced
    ~topology:
      (multi_dumbbell ~bottleneck_mbps:100. ~bottleneck_delay_s:0.01
         ~buffer_packets:250 ~red:None ~cross_pairs:3)
    ~flows:
      (List.concat_map
         (fun s ->
           [
             flow
               ~label:(Printf.sprintf "seg%d-rss" s)
               ~pair:(2 * s) ~slow_start:"restricted" bulk;
             flow
               ~label:(Printf.sprintf "seg%d-std" s)
               ~start_at:(0.5 *. float_of_int (s + 1))
               ~pair:((2 * s) + 1)
               ~slow_start:"standard" bulk;
           ])
         [ 0; 1; 2; 3 ]
      @ [
          cross "cross01" 8 "restricted";
          cross "cross12" 9 "standard";
          cross "cross23" 10 "hystart";
        ])

let red ~min_th ~max_th =
  J.Obj
    [
      ("min_th", num min_th);
      ("max_th", num max_th);
      ("max_p", num 0.1);
      ("weight", num 0.002);
    ]

let many_flows ~flows ~arrival_rate ~mean_size =
  J.Obj
    [
      ("kind", str "many_flows");
      ("flows", int flows);
      ("arrival_rate", match arrival_rate with Some r -> num r | None -> J.Null);
      ("arrival_pareto_shape", J.Null);
      ("mean_size", match mean_size with Some s -> int s | None -> J.Null);
      ("size_pareto_shape", num 1.2);
    ]

(* 10^6 persistent AIMD flows sharded one sub-population per segment
   over four 200 Gbit/s RED bottlenecks at the paper's 60 ms base RTT:
   about four segments per window, the many-small-windows regime. *)
let many_flows_spec ~seed ~traced =
  spec ~name:"many-flows-1m" ~seed ~duration_s:1.0 ~domains:1 ~traced
    ~topology:
      (multi_dumbbell ~bottleneck_mbps:200_000. ~bottleneck_delay_s:0.028
         ~buffer_packets:25_000
         ~red:(Some (red ~min_th:5000. ~max_th:15000.))
         ~cross_pairs:0)
    ~flows:
      [
        flow ~label:"crowd" ~pair:0 ~slow_start:"standard"
          (many_flows ~flows:1_000_000 ~arrival_rate:None ~mean_size:None);
      ]

(* The finite-flow conservation probe run beside many_flows_1m: the
   paper path at about 60 % offered load — 150 flows/s of 50 KB Pareto
   transfers for 60 s, flows retiring as they finish. *)
let probe_spec ~seed =
  spec ~name:"finite-flow-probe" ~seed ~duration_s:60. ~domains:1
    ~traced:false
    ~topology:
      (J.Obj
         [
           ("kind", str "duplex");
           ("rate_mbps", num 100.);
           ("one_way_delay_s", num 0.03);
           ("ifq_capacity", int 250);
         ])
    ~flows:
      [
        flow ~label:"finite" ~pair:0 ~slow_start:"standard"
          (many_flows ~flows:9000 ~arrival_rate:(Some 150.)
             ~mean_size:(Some 50_000));
      ]

(* The specs of one operation, in execution order. [domains] (1 by
   default) partitions dumbbell_pdes. *)
let operation ?(domains = 1) w ~seed ~traced =
  match w with
  | Paper_path ->
      [
        paper_path_spec ~seed ~traced "standard";
        paper_path_spec ~seed ~traced "restricted";
      ]
  | Dumbbell_pdes ->
      [
        dumbbell_spec ~seed ~traced ~domains;
      ]
  | Many_flows_1m -> [ many_flows_spec ~seed ~traced ]
