type t = {
  sched : Sim.Scheduler.t;
  line_rate : Sim.Units.rate;
  queue : Queue_disc.t;
  mutable link : Link.t option;
  mutable transmitting : bool;
  mutable tx_packet_count : int;
  mutable tx_byte_count : int;
  mutable dequeue_hook : (Packet.t -> unit) option;
  mutable tracer : Trace.t option;
  mutable trace_src : int;
}

let create sched ~rate ~queue =
  if not (rate > 0.) then
    invalid_arg (Printf.sprintf "Nic.create: rate %g must be positive" rate);
  {
    sched;
    line_rate = rate;
    queue;
    link = None;
    transmitting = false;
    tx_packet_count = 0;
    tx_byte_count = 0;
    dequeue_hook = None;
    tracer = None;
    trace_src = 0;
  }

let attach t link = t.link <- Some link

let set_tracer t ?(src = 0) tracer =
  t.tracer <- tracer;
  t.trace_src <- src

let rec start_next t =
  let link =
    match t.link with
    | Some l -> l
    | None -> invalid_arg "Nic: no link attached"
  in
  if Queue_disc.length t.queue = 0 then t.transmitting <- false
  else begin
    let pkt = Queue_disc.take t.queue ~now:(Sim.Scheduler.now t.sched) in
    t.transmitting <- true;
    (match t.dequeue_hook with Some hook -> hook pkt | None -> ());
    let tx = Sim.Units.tx_time t.line_rate ~bytes:(Packet.size pkt) in
    ignore
      (Sim.Scheduler.after t.sched tx (fun () ->
           t.tx_packet_count <- t.tx_packet_count + 1;
           t.tx_byte_count <- t.tx_byte_count + Packet.size pkt;
           (match t.tracer with
           | None -> ()
           | Some tr ->
               Trace.emit tr
                 ~time_ns:(Sim.Time.to_ns_int (Sim.Scheduler.now t.sched))
                 ~code:Trace.Code.nic_tx ~src:t.trace_src
                 ~arg1:pkt.Packet.flow ~arg2:(Packet.size pkt));
           Link.transmit link pkt;
           start_next t))
  end

let kick t = if not t.transmitting then start_next t

let rate t = t.line_rate
let busy t = t.transmitting
let tx_packets t = t.tx_packet_count
let tx_bytes t = t.tx_byte_count
let set_dequeue_hook t hook = t.dequeue_hook <- Some hook
