(* Output checks applied to every execution the benchmark makes.

   Each check returns [Ok ()] or [Error reason]. An operation whose
   executions fail any check counts as failed. The self-tests in
   {!Selftest} feed each check a hand-corrupted outcome and require a
   rejection. *)

module Spec = Core.Spec

type result = (unit, string) Stdlib.result

(* Flow-level engine counters read after an execution, one per shard. *)
type mf_counts = {
  created : int;
  completed : int;
  active : int;
  loss_events : int;
}

let mf_counts built =
  List.map
    (fun e ->
      {
        created = Workload.Many_flows.created e;
        completed = Workload.Many_flows.completed e;
        active = Workload.Many_flows.active e;
        loss_events = Workload.Many_flows.loss_events e;
      })
    (Spec.many_flows_engines built)

let series (r : Spec.flow_result) =
  [
    r.stalls_series; r.cwnd_series; r.ifq_series; r.throughput_series;
    r.srtt_series;
  ]

(* Every number the outcome reports — its scalars (the JSON artifact)
   and every recorded series value — is finite. *)
let finite (o : Spec.outcome) : result =
  let bad = ref None in
  let rec walk path = function
    | Report.Json.Number f when not (Float.is_finite f) ->
        if !bad = None then bad := Some (Printf.sprintf "%s = %g" path f)
    | Report.Json.List l -> List.iteri (fun i j -> walk (Printf.sprintf "%s[%d]" path i) j) l
    | Report.Json.Obj kv -> List.iter (fun (k, j) -> walk (path ^ "." ^ k) j) kv
    | Report.Json.Number _ | Report.Json.Null | Report.Json.Bool _
    | Report.Json.String _ ->
        ()
  in
  walk "outcome" (Spec.outcome_to_json o);
  List.iter
    (fun (r : Spec.flow_result) ->
      List.iter
        (fun s ->
          Array.iter
            (fun v ->
              if (not (Float.is_finite v)) && !bad = None then
                bad :=
                  Some
                    (Printf.sprintf "series %s of %s holds %g"
                       (Sim.Stats.Series.name s) r.label v))
            (Sim.Stats.Series.values s))
        (series r))
    o.results;
  match !bad with None -> Ok () | Some b -> Error ("non-finite: " ^ b)

(* Every flow a flow-level population created is completed or active. *)
let mf_conservation (mf : mf_counts list) : result =
  match
    List.find_opt
      (fun c -> c.active < 0 || c.created <> c.completed + c.active)
      mf
  with
  | Some c ->
      Error
        (Printf.sprintf "many_flows created %d <> completed %d + active %d"
           c.created c.completed c.active)
  | None -> Ok ()

(* No flow delivers more than its line rate, and flow-level
   populations conserve flows. *)
let conservation (o : Spec.outcome) (mf : mf_counts list) : result =
  match
    List.find_opt
      (fun (r : Spec.flow_result) -> not (r.utilization <= 1.))
      o.results
  with
  | Some r ->
      Error
        (Printf.sprintf "flow %s utilization %g exceeds 1" r.label
           r.utilization)
  | None -> mf_conservation mf

(* The outcome digest: the JSON artifact plus every series point, so two
   executions agree only if everything they report agrees. *)
let digest (o : Spec.outcome) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Report.Json.to_string (Spec.outcome_to_json o));
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          Array.iter
            (fun v -> Buffer.add_string b (Printf.sprintf "%h;" v))
            (Sim.Stats.Series.values s))
        (series r))
    o.results;
  Digest.to_hex (Digest.string (Buffer.contents b))

let determinism ~expected actual : result =
  if String.equal expected actual then Ok ()
  else Error (Printf.sprintf "outcome digest %s <> expected %s" actual expected)

let single (o : Spec.outcome) =
  match o.results with
  | [ r ] -> Some r
  | _ -> None

(* The paper's shape on its own path: restricted slow-start never
   stalls the sender, and it out-delivers standard slow-start. *)
let paper_shape ~standard ~restricted : result =
  match (single standard, single restricted) with
  | Some std, Some rss ->
      if rss.send_stalls > 0 then
        Error (Printf.sprintf "restricted slow-start stalled %d times" rss.send_stalls)
      else if not (rss.goodput_mbps > std.goodput_mbps) then
        Error
          (Printf.sprintf "restricted goodput %g Mbit/s is not above standard %g"
             rss.goodput_mbps std.goodput_mbps)
      else Ok ()
  | _ -> Error "paper pair must hold one flow per outcome"

(* Restricted over standard goodput, in percent: the paper reports
   about 40 % on this path (T1). *)
let t1_gain_pct ~standard ~restricted =
  match (single standard, single restricted) with
  | Some std, Some rss when std.goodput_mbps > 0. ->
      100. *. (rss.goodput_mbps -. std.goodput_mbps) /. std.goodput_mbps
  | _ -> Float.nan

let all (rs : result list) : result =
  match List.find_opt Result.is_error rs with Some e -> e | None -> Ok ()

(* --- the finite-flow conservation probe ------------------------------- *)

type probe = {
  tracked_bytes : float;  (* the engine's running window sum *)
  true_bytes : float;  (* live windows re-summed from the flow table *)
  counts : mf_counts;
  mean_cwnd_segments : float;
}

let residual p = p.tracked_bytes -. p.true_bytes

let read_probe built =
  match (Spec.many_flows_engines built, mf_counts built) with
  | [ e ], [ counts ] ->
      let tbl = Workload.Many_flows.table e in
      let truth = ref 0. in
      for row = 0 to Tcp.Flow_table.capacity tbl - 1 do
        if Tcp.Flow_table.is_live tbl row then
          truth := !truth +. Tcp.Flow_table.cwnd tbl row
      done;
      {
        tracked_bytes = Workload.Many_flows.sum_cwnd_bytes e;
        true_bytes = !truth;
        counts;
        mean_cwnd_segments = Workload.Many_flows.mean_cwnd_segments e;
      }
  | _ -> invalid_arg "probe: expected one many_flows engine"

(* The running window sum equals the re-summed live windows to within
   a byte (float rounding over millions of updates stays far below
   that), windows are non-negative, and every created flow is either
   completed or active. *)
let probe_check p : result =
  if not (Float.abs (residual p) <= 1.) then
    Error
      (Printf.sprintf "window sum residual %.0f bytes (tracked %.0f, true %.0f)"
         (residual p) p.tracked_bytes p.true_bytes)
  else if not (p.mean_cwnd_segments >= 0.) then
    Error (Printf.sprintf "mean cwnd %g segments" p.mean_cwnd_segments)
  else mf_conservation [ p.counts ]

(* (failed operations + failed probes) ÷ (operations + probes). *)
let failed_share ~failed ~attempted probe =
  let probe_failed, probes =
    match probe with
    | None -> (0, 0)
    | Some (_, Ok ()) -> (0, 1)
    | Some (_, Error _) -> (1, 1)
  in
  float_of_int (failed + probe_failed) /. float_of_int (attempted + probes)
