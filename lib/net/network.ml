module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration
module Rng = Bft_util.Rng
module Trace = Bft_trace.Trace

type node_id = int

type handler = src:node_id -> wire:string -> size:int -> unit

type node_counters = {
  mutable nc_sent : int;  (** datagrams departing this host (per destination) *)
  mutable nc_delivered : int;  (** datagrams handed to this host's handler *)
  mutable nc_dropped : int;  (** datagrams addressed here that were lost *)
  mutable nc_overflowed : int;  (** subset of [nc_dropped]: recv-buffer overflow *)
}

type node = {
  name : string;
  cpu : Cpu.t;
  mutable handler : handler;
  mutable up : bool;
  mutable egress_free : float;
  mutable ingress_free : float;
  recv_buffer : float;
  counters : node_counters;
}

type t = {
  engine : Engine.t;
  cal : Calibration.t;
  rng : Rng.t;
  mutable nodes : node array;
  mutable node_count : int;
  mutable loss : float;  (* uniform datagram drop probability *)
  mutable duplication : float;
  blocked : (int, unit) Hashtbl.t;
      (* partitioned host pairs, indexed symmetrically (see [pair_key]):
         membership is O(1) per (src, dst) instead of an O(pairs) scan per
         datagram, which matters once sharded topologies put dozens of
         hosts on one switch *)
  mutable sent : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable wire_bytes : int;
  trace : Trace.t;
}

let simulation ?(cal = Calibration.default) ?(trace = Trace.nil) ~rng () =
  let engine = Engine.create () in
  Engine.set_trace engine trace;
  {
    engine;
    cal;
    rng;
    nodes = [||];
    node_count = 0;
    loss = 0.0;
    duplication = 0.0;
    blocked = Hashtbl.create 64;
    sent = 0;
    dropped = 0;
    delivered = 0;
    wire_bytes = 0;
    trace;
  }

let trace t = t.trace

let engine t = t.engine

let calibration t = t.cal

let no_handler ~src:_ ~wire:_ ~size:_ = ()

let add_node t ~cpu ?(recv_buffer = 0.02) ~name () =
  let node =
    {
      name;
      cpu;
      handler = no_handler;
      up = true;
      egress_free = 0.0;
      ingress_free = 0.0;
      recv_buffer;
      counters =
        { nc_sent = 0; nc_delivered = 0; nc_dropped = 0; nc_overflowed = 0 };
    }
  in
  if t.node_count = Array.length t.nodes then begin
    let bigger = Array.make (Stdlib.max 8 (2 * t.node_count)) node in
    Array.blit t.nodes 0 bigger 0 t.node_count;
    t.nodes <- bigger
  end;
  let id = t.node_count in
  t.nodes.(id) <- node;
  t.node_count <- t.node_count + 1;
  id

let get t id =
  if id < 0 || id >= t.node_count then invalid_arg "Network: bad node id";
  t.nodes.(id)

let set_handler t id handler = (get t id).handler <- handler

let node_cpu t id = (get t id).cpu

let cpus t =
  List.init t.node_count (fun id ->
      let node = t.nodes.(id) in
      (node.name, node.cpu))

let profile t =
  Bft_trace.Profile.make ~labels:Cpu.category_labels
    (List.map
       (fun (name, cpu) -> (name, Cpu.busy_seconds cpu, Cpu.total_busy cpu))
       (cpus t))

let set_up t id up = (get t id).up <- up

let is_up t id = (get t id).up

(* Partitions are symmetric: a blocked pair cuts the link in both
   directions, as a real switch or cable fault would. The pair is indexed
   under a single order-independent key. *)
let pair_key a b =
  let lo = Stdlib.min a b and hi = Stdlib.max a b in
  (hi lsl 24) lor lo

let set_loss t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Network.set_loss";
  t.loss <- p

let set_duplication t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Network.set_duplication";
  t.duplication <- p

let blocked t ~src ~dst = Hashtbl.mem t.blocked (pair_key src dst)

let install_partition t ~groups =
  List.iter
    (List.iter (fun id ->
         if id < 0 || id >= t.node_count then
           invalid_arg "Network.install_partition: bad node id"))
    groups;
  Hashtbl.reset t.blocked;
  let rec cross = function
    | [] -> ()
    | g :: rest ->
      List.iter
        (fun a ->
          List.iter
            (List.iter (fun b -> Hashtbl.replace t.blocked (pair_key a b) ()))
            rest)
        g;
      cross rest
  in
  cross groups

let heal_partition t = Hashtbl.reset t.blocked

let charge_recv t node size =
  Cpu.charge ~cat:Cpu.Decode node.cpu
    (t.cal.Calibration.udp_recv_cost
    +. (float_of_int size *. t.cal.Calibration.byte_touch_cost))

let drop t (node : node) ~id ~overflow ~why =
  t.dropped <- t.dropped + 1;
  node.counters.nc_dropped <- node.counters.nc_dropped + 1;
  if overflow then node.counters.nc_overflowed <- node.counters.nc_overflowed + 1;
  if Trace.enabled t.trace then
    Trace.emit t.trace
      ~vtime:(Engine.now t.engine)
      ~node:id ~detail:why Trace.Net_drop

(* Deliver one already-serialized datagram to [dst]'s ingress link. *)
let deliver t ~src ~dst ~wire ~size ~arrival =
  let receiver = get t dst in
  let start = Float.max arrival receiver.ingress_free in
  let backlog = start -. arrival in
  if backlog > receiver.recv_buffer then
    drop t receiver ~id:dst ~overflow:true ~why:"overflow"
  else begin
    let serialization = Calibration.transmission_time t.cal size in
    receiver.ingress_free <- start +. serialization;
    let ready = start +. serialization in
    Engine.schedule_at t.engine ready (fun () ->
        if receiver.up then begin
          t.delivered <- t.delivered + 1;
          receiver.counters.nc_delivered <- receiver.counters.nc_delivered + 1;
          if Trace.enabled t.trace then
            Trace.emit t.trace
              ~vtime:(Engine.now t.engine)
              ~node:dst
              ~detail:(Printf.sprintf "%s<-%d:%d" receiver.name src size)
              Trace.Net_deliver;
          Cpu.dispatch receiver.cpu (fun () ->
              charge_recv t receiver size;
              receiver.handler ~src ~wire ~size)
        end
        else drop t receiver ~id:dst ~overflow:false ~why:"down")
  end

let unlucky t p = p > 0.0 && Rng.bernoulli t.rng p

(* Serialize once on the sender's egress link, then fan out. *)
let transmit t ~src ~dsts ~wire ~size =
  let sender = get t src in
  if sender.up then begin
    let departure = Float.max (Cpu.virtual_now sender.cpu) sender.egress_free in
    let serialization = Calibration.transmission_time t.cal size in
    sender.egress_free <- departure +. serialization;
    let at_switch = departure +. serialization +. t.cal.Calibration.switch_latency in
    t.sent <- t.sent + List.length dsts;
    sender.counters.nc_sent <- sender.counters.nc_sent + List.length dsts;
    t.wire_bytes <- t.wire_bytes + Calibration.wire_bytes t.cal size;
    if Trace.enabled t.trace then begin
      Trace.emit t.trace
        ~vtime:(Engine.now t.engine)
        ~node:src
        ~detail:(Printf.sprintf "%s:%d*%d" sender.name size (List.length dsts))
        Trace.Net_enqueue;
      (* Emitted ahead of time at the (deterministic) instant the egress
         link finishes clocking the datagram out. *)
      Trace.emit t.trace
        ~vtime:(departure +. serialization)
        ~node:src ~detail:sender.name Trace.Net_serialize
    end;
    List.iter
      (fun dst ->
        if dst = src then begin
          (* Loopback skips the wire (no switch hop, no ingress
             serialization) but still crosses the UDP stack — and the same
             fault model as the switched path: injected loss/duplication
             apply, and a host that goes down before the datagram surfaces
             keeps nothing. Only partitions are exempt: a blocked pair cuts
             an inter-host link, and a host cannot be partitioned from
             itself. *)
          if unlucky t t.loss then
            drop t sender ~id:src ~overflow:false ~why:"fault"
          else begin
            let deliver_local () =
              Engine.schedule_at t.engine departure (fun () ->
                  if sender.up then begin
                    t.delivered <- t.delivered + 1;
                    sender.counters.nc_delivered <-
                      sender.counters.nc_delivered + 1;
                    if Trace.enabled t.trace then
                      Trace.emit t.trace
                        ~vtime:(Engine.now t.engine)
                        ~node:src
                        ~detail:(Printf.sprintf "%s<-%d:%d" sender.name src size)
                        Trace.Net_deliver;
                    Cpu.dispatch sender.cpu (fun () ->
                        charge_recv t sender size;
                        sender.handler ~src ~wire ~size)
                  end
                  else drop t sender ~id:src ~overflow:false ~why:"down")
            in
            deliver_local ();
            if unlucky t t.duplication then deliver_local ()
          end
        end
        else if blocked t ~src ~dst then
          drop t (get t dst) ~id:dst ~overflow:false ~why:"blocked"
        else if unlucky t t.loss then
          drop t (get t dst) ~id:dst ~overflow:false ~why:"fault"
        else begin
          deliver t ~src ~dst ~wire ~size ~arrival:at_switch;
          if unlucky t t.duplication then
            deliver t ~src ~dst ~wire ~size ~arrival:at_switch
        end)
      dsts
  end

let charge_send t node size =
  Cpu.charge ~cat:Cpu.Encode node.cpu
    (t.cal.Calibration.udp_send_cost
    +. (float_of_int size *. t.cal.Calibration.byte_touch_cost))

let send t ~src ~dst ?size wire =
  let size = Option.value ~default:(String.length wire) size in
  charge_send t (get t src) size;
  transmit t ~src ~dsts:[ dst ] ~wire ~size

let multicast t ~src ~dsts ?size wire =
  let size = Option.value ~default:(String.length wire) size in
  charge_send t (get t src) size;
  transmit t ~src ~dsts ~wire ~size

let sent_datagrams t = t.sent

let dropped_datagrams t = t.dropped

let delivered_datagrams t = t.delivered

let bytes_on_wire t = t.wire_bytes

let per_node_counters t =
  List.init t.node_count (fun id ->
      let node = t.nodes.(id) in
      let c = node.counters in
      (node.name, c.nc_sent, c.nc_delivered, c.nc_dropped, c.nc_overflowed))
