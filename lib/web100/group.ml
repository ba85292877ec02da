module Counter = struct
  type c = int ref

  let incr ?(by = 1) c = c := !c + by
  let value c = !c
end

module Gauge = struct
  (* A one-field float record is stored flat: [set] writes the float in
     place instead of allocating a box for it. *)
  type g = { mutable v : float }

  let set g v = g.v <- v
  let value g = g.v
end

type var = Counter_var of Counter.c | Gauge_var of Gauge.g

(* Groups hold a few dozen variables at most, so a list searched by name
   is cheaper than hashing, and a group made by [create_kis] is a single
   allocation pass with no hashing at all. *)
type t = { name : string; mutable vars : (string * var) list }

type kis = {
  pkts_out : Counter.c;
  data_bytes_out : Counter.c;
  pkts_retrans : Counter.c;
  bytes_retrans : Counter.c;
  congestion_signals : Counter.c;
  send_stall : Counter.c;
  timeouts : Counter.c;
  dup_acks_in : Counter.c;
  fast_retran : Counter.c;
  acks_in : Counter.c;
  cur_cwnd : Gauge.g;
  cur_ssthresh : Gauge.g;
  smoothed_rtt : Gauge.g;
  cur_rto : Gauge.g;
  min_rtt : Gauge.g;
  max_rwin_rcvd : Gauge.g;
  slow_start : Counter.c;
  cong_avoid : Counter.c;
  cur_ifq : Gauge.g;
}

let create ?(conn_name = "conn") () = { name = conn_name; vars = [] }

let create_kis ?(conn_name = "conn") () =
  let c () = ref 0 and g () = { Gauge.v = 0. } in
  let k =
    {
      pkts_out = c ();
      data_bytes_out = c ();
      pkts_retrans = c ();
      bytes_retrans = c ();
      congestion_signals = c ();
      send_stall = c ();
      timeouts = c ();
      dup_acks_in = c ();
      fast_retran = c ();
      acks_in = c ();
      cur_cwnd = g ();
      cur_ssthresh = g ();
      smoothed_rtt = g ();
      cur_rto = g ();
      min_rtt = g ();
      max_rwin_rcvd = g ();
      slow_start = c ();
      cong_avoid = c ();
      cur_ifq = g ();
    }
  in
  let vars =
    [
      (Kis.pkts_out, Counter_var k.pkts_out);
      (Kis.data_bytes_out, Counter_var k.data_bytes_out);
      (Kis.pkts_retrans, Counter_var k.pkts_retrans);
      (Kis.bytes_retrans, Counter_var k.bytes_retrans);
      (Kis.congestion_signals, Counter_var k.congestion_signals);
      (Kis.send_stall, Counter_var k.send_stall);
      (Kis.timeouts, Counter_var k.timeouts);
      (Kis.dup_acks_in, Counter_var k.dup_acks_in);
      (Kis.fast_retran, Counter_var k.fast_retran);
      (Kis.acks_in, Counter_var k.acks_in);
      (Kis.cur_cwnd, Gauge_var k.cur_cwnd);
      (Kis.cur_ssthresh, Gauge_var k.cur_ssthresh);
      (Kis.smoothed_rtt, Gauge_var k.smoothed_rtt);
      (Kis.cur_rto, Gauge_var k.cur_rto);
      (Kis.min_rtt, Gauge_var k.min_rtt);
      (Kis.max_rwin_rcvd, Gauge_var k.max_rwin_rcvd);
      (Kis.slow_start, Counter_var k.slow_start);
      (Kis.cong_avoid, Counter_var k.cong_avoid);
      (Kis.cur_ifq, Gauge_var k.cur_ifq);
    ]
  in
  ({ name = conn_name; vars }, k)

let conn_name t = t.name

let rec assoc name = function
  | [] -> None
  | (n, v) :: rest -> if String.equal n name then Some v else assoc name rest

let find t name = assoc name t.vars

let counter t name =
  match find t name with
  | Some (Counter_var c) -> c
  | Some (Gauge_var _) ->
      invalid_arg (name ^ " is registered as a gauge, not a counter")
  | None ->
      let c = ref 0 in
      t.vars <- (name, Counter_var c) :: t.vars;
      c

let gauge t name =
  match find t name with
  | Some (Gauge_var g) -> g
  | Some (Counter_var _) ->
      invalid_arg (name ^ " is registered as a counter, not a gauge")
  | None ->
      let g = { Gauge.v = 0. } in
      t.vars <- (name, Gauge_var g) :: t.vars;
      g

let value = function
  | Counter_var c -> float_of_int !c
  | Gauge_var g -> g.Gauge.v

let read t name = Option.map value (find t name)

let snapshot t =
  List.map (fun (name, var) -> (name, value var)) t.vars
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp fmt t =
  Format.fprintf fmt "@[<v>%s:@,%a@]" t.name
    (Format.pp_print_list (fun fmt (k, v) ->
         Format.fprintf fmt "  %-20s %.6g" k v))
    (snapshot t)
