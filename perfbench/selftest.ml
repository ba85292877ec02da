(* Self-tests run at the start of every benchmark invocation. They
   check the benchmark, not the simulator:

   - the workload and metric names it prints are exactly those in
     BENCHMARK.json, with the same units and directions;
   - changing the seed changes the generated specs' seed and nothing
     else;
   - every output check rejects a hand-corrupted outcome. *)

module J = Report.Json
module Spec = Core.Spec

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* --- names ------------------------------------------------------------ *)

let member k j =
  match J.member k j with Some v -> v | None -> fail "BENCHMARK.json: no %S" k

let string_of k j =
  match J.string_value (member k j) with
  | Some s -> s
  | None -> fail "BENCHMARK.json: %S is not a string" k

let entries k j =
  match J.list_value (member k j) with
  | Some l -> l
  | None -> fail "BENCHMARK.json: %S is not a list" k

let sorted l = List.sort compare l

let names ~path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" path e
  in
  let json =
    match J.of_string text with Ok j -> j | Error e -> fail "%s: %s" path e
  in
  let listed = List.map (string_of "name") (entries "workloads" json) in
  let ours = List.map Workloads.name Workloads.all in
  if sorted listed <> sorted ours then
    fail "BENCHMARK.json workloads [%s] <> benchmark's [%s]"
      (String.concat ", " listed) (String.concat ", " ours);
  List.iter
    (fun (key, catalog) ->
      let listed =
        List.map
          (fun e -> (string_of "name" e, string_of "unit" e, string_of "better" e))
          (entries key json)
      in
      let ours =
        List.map
          (fun (m : Catalog.metric) ->
            (m.name, m.unit, Catalog.better_name m.better))
          catalog
      in
      if sorted listed <> sorted ours then
        fail "BENCHMARK.json %s disagrees with the metrics the benchmark prints"
          key)
    [ ("end_to_end", Catalog.end_to_end); ("per_layer", Catalog.per_layer) ]

(* --- the seed --------------------------------------------------------- *)

let parse j =
  match Spec.of_json j with
  | Ok s -> s
  | Error e -> fail "generated spec rejected: %s" e

(* Two seeds' specs differ in the "seed" field alone, which carries the
   seed given. *)
let seed_only () =
  let a = 11 and b = 12 in
  let pairs =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun traced ->
            List.combine
              (Workloads.operation w ~seed:a ~traced)
              (Workloads.operation w ~seed:b ~traced))
          [ false; true ])
      Workloads.all
    @ [ (Workloads.probe_spec ~seed:a, Workloads.probe_spec ~seed:b) ]
  in
  List.iter
    (fun (ja, jb) ->
      (match (ja, jb) with
      | J.Obj fa, J.Obj fb when List.map fst fa = List.map fst fb ->
          List.iter2
            (fun (k, va) (_, vb) ->
              if k = "seed" then begin
                if va <> J.String (string_of_int a) || vb <> J.String (string_of_int b)
                then fail "spec seed does not carry the seed argument"
              end
              else if va <> vb then fail "seed changed spec field %S" k)
            fa fb
      | _ -> fail "seed changed the spec's shape");
      let sa = parse ja and sb = parse jb in
      if sa.Spec.seed <> a || { sb with Spec.seed = sa.Spec.seed } <> sa then
        fail "parsed specs differ beyond the seed")
    pairs

(* --- the checks ------------------------------------------------------- *)

let must_reject what = function
  | Ok () -> fail "check accepted a corrupted outcome: %s" what
  | Error _ -> ()

let must_pass what = function
  | Ok () -> ()
  | Error e -> fail "check rejected a sound outcome (%s): %s" what e

let map_flows f (o : Spec.outcome) = { o with results = List.map f o.results }

let checks ~seed =
  let pair =
    List.map
      (fun ss ->
        Exec.run (Workloads.paper_path_spec ~duration_s:10. ~seed ~traced:false ss))
      [ "standard"; "restricted" ]
  in
  let std, rss =
    match pair with [ s; r ] -> (s, r) | _ -> assert false
  in
  let expected = Exec.digests pair in
  must_pass "paper pair" (Exec.check Workloads.Paper_path ~expected pair);
  let o = rss.Exec.outcome in
  must_reject "utilization 1.2"
    (Checks.conservation
       (map_flows (fun r -> { r with utilization = 1.2 }) o)
       []);
  must_reject "NaN goodput"
    (Checks.finite (map_flows (fun r -> { r with goodput_mbps = Float.nan }) o));
  must_reject "NaN in a series"
    (let r = List.hd o.results in
     let s = Sim.Stats.Series.create () in
     Sim.Stats.Series.add s Sim.Time.zero Float.nan;
     Checks.finite { o with results = [ { r with cwnd_series = s } ] });
  must_reject "digest mismatch"
    (Checks.determinism ~expected:rss.digest
       (Checks.digest (map_flows (fun r -> { r with retransmits = r.retransmits + 1 }) o)));
  must_reject "RSS stalls > 0"
    (Checks.paper_shape ~standard:std.outcome
       ~restricted:(map_flows (fun r -> { r with send_stalls = 1 }) o));
  must_reject "RSS goodput below standard"
    (Checks.paper_shape ~standard:o
       ~restricted:(map_flows (fun r -> { r with send_stalls = 0 }) std.outcome));
  must_reject "many_flows created <> completed + active"
    (Checks.conservation o
       [ { Checks.created = 10; completed = 3; active = 6; loss_events = 0 } ]);
  let probe residual =
    {
      Checks.tracked_bytes = 1e6 +. residual;
      true_bytes = 1e6;
      counts = { Checks.created = 10; completed = 4; active = 6; loss_events = 0 };
      mean_cwnd_segments = 3.;
    }
  in
  must_pass "probe without residual" (Checks.probe_check (probe 0.));
  must_reject "probe residual" (Checks.probe_check (probe 74_000.))

let run ~benchmark_json ~seed =
  match
    names ~path:benchmark_json;
    seed_only ();
    checks ~seed
  with
  | () -> Ok ()
  | exception Failed e -> Error e
