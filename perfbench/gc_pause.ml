(* Stop-the-world GC time from the OCaml runtime's own event ring
   (runtime_events): the summed duration of minor collections and major
   slices. Off until {!enable}; the untraced runs never start it.

   The runtime keeps the ring in a file in the working directory, sized
   for every domain the runtime could ever run. run.py keeps it small
   (OCAMLRUNPARAM=e=10: 2^10 words per domain), so the ring must be
   drained often: {!while_polling} drains it every millisecond of wall
   time, which simulated time cannot do, as one many_flows step can run
   a hundred minor collections. *)

module R = Runtime_events

let cursor = ref None
let total_ns = ref 0L
let lost = ref 0
let open_since = Hashtbl.create 4 (* ring -> (depth, start ns) *)

let gc_phase = function
  | R.EV_MINOR | R.EV_MAJOR_SLICE -> true
  | _ -> false

let callbacks =
  R.Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      if gc_phase phase then
        match Hashtbl.find_opt open_since ring with
        | Some (depth, start) -> Hashtbl.replace open_since ring (depth + 1, start)
        | None ->
            Hashtbl.replace open_since ring (1, R.Timestamp.to_int64 ts))
    ~runtime_end:(fun ring ts phase ->
      if gc_phase phase then
        match Hashtbl.find_opt open_since ring with
        | Some (1, start) ->
            Hashtbl.remove open_since ring;
            total_ns :=
              Int64.add !total_ns (Int64.sub (R.Timestamp.to_int64 ts) start)
        | Some (depth, start) ->
            Hashtbl.replace open_since ring (depth - 1, start)
        | None -> ())
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let enable () =
  if !cursor = None then begin
    R.start ();
    cursor := Some (R.create_cursor None)
  end

let disable () = if !cursor <> None then R.pause ()

(* The timer's handler may run at a safe point inside a poll. *)
let polling = ref false

let poll () =
  match !cursor with
  | Some c when not !polling ->
      polling := true;
      Fun.protect
        (fun () -> ignore (R.read_poll c callbacks None))
        ~finally:(fun () -> polling := false)
  | _ -> ()

(* [f ()], with the ring drained from a SIGALRM handler every
   millisecond; the handler runs at the program's next safe point. *)
let while_polling f =
  let every s = { Unix.it_interval = s; it_value = s } in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> poll ())) in
  ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.001));
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.));
      Sys.set_signal Sys.sigalrm old)

(* Discard what happened so far, events lost included. *)
let reset () =
  poll ();
  total_ns := 0L;
  lost := 0;
  Hashtbl.reset open_since

let read_ms () =
  poll ();
  Int64.to_float !total_ns /. 1e6

(* Events the ring dropped since the last {!reset}. *)
let lost_events () = !lost
