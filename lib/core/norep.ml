module Network = Bft_net.Network
module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Auth = Bft_crypto.Auth

let no_auth = { Auth.nonce = 0L; entries = [] }

let encode msg =
  let env = { Message.sender = 0; msg; commits = []; auth = no_auth } in
  let wire = Message.encode_envelope env in
  (wire, Message.envelope_size env wire)

let serve network node handle =
  Network.set_handler network node (fun ~src dgram ->
      match Message.decode_envelope dgram.Network.wire with
      | { Message.msg = Message.Request r; _ } -> handle ~src r
      | _ | (exception Bft_util.Codec.Decode_error _) -> ())

let send_reply network ~src ~dst (r : Message.request) result =
  let reply =
    {
      Message.view = 0;
      timestamp = r.Message.timestamp;
      client = r.Message.client;
      replica = 0;
      tentative = false;
      epoch = 0;
      body = Message.Full_result result;
    }
  in
  let wire, size = encode (Message.Reply reply) in
  Network.send network ~src ~dst ~size wire

module Server = struct
  type t = {
    network : Network.t;
    node : Network.node_id;
    service : Service.t;
  }

  let handle t ~src (r : Message.request) =
    Cpu.charge ~cat:Cpu.Exec
      (Network.node_cpu t.network t.node)
      (t.service.Service.execute_cost r.Message.op);
    let result, _undo =
      t.service.Service.execute ~client:r.Message.client ~op:r.Message.op
    in
    send_reply t.network ~src:t.node ~dst:src r result

  let create ~network ~node ~service () =
    let t = { network; node; service } in
    serve network node (handle t);
    t
end

module Client = struct
  type outcome = { result : Payload.t; latency : float; retries : int }

  type pending = {
    ts : int64;
    op : Payload.t;
    callback : outcome -> unit;
    started : float;
    mutable retries : int;
    mutable timer : Engine.event;
  }

  type t = {
    network : Network.t;
    node : Network.node_id;
    id : Types.client_id;
    server : Network.node_id;
    retry_timeout : float option;
    mutable next_ts : int64;
    mutable pending : pending option;
    mutable completed : int;
    mutable retransmitted : int;
  }

  let completed t = t.completed

  let retransmitted t = t.retransmitted

  let complete t p (result : Payload.t) =
    Engine.cancel p.timer;
    t.pending <- None;
    t.completed <- t.completed + 1;
    let latency = Engine.now (Network.engine t.network) -. p.started in
    p.callback { result; latency; retries = p.retries }

  let on_reply t (r : Message.reply) =
    match t.pending with
    | Some p when r.Message.timestamp = p.ts -> (
      match r.Message.body with
      | Message.Full_result result -> complete t p result
      | Message.Result_digest _ -> ())
    | _ -> ()

  let send_request t p =
    let r =
      {
        Message.client = t.id;
        timestamp = p.ts;
        read_only = false;
        full_replies = true;
        replier = -1;
        op = p.op;
      }
    in
    let wire, size = encode (Message.Request r) in
    Network.send t.network ~src:t.node ~dst:t.server ~size wire

  let rec arm_timer t p =
    match t.retry_timeout with
    | None -> ()
    | Some delay ->
      p.timer <-
        Engine.schedule_event (Network.engine t.network) ~delay (fun () ->
            match t.pending with
            | Some p' when p' == p ->
              p.retries <- p.retries + 1;
              t.retransmitted <- t.retransmitted + 1;
              send_request t p;
              arm_timer t p
            | _ -> ())

  let invoke t op callback =
    if Option.is_some t.pending then
      invalid_arg "Norep.Client.invoke: operation outstanding";
    t.next_ts <- Int64.add t.next_ts 1L;
    let p =
      {
        ts = t.next_ts;
        op;
        callback;
        started = Engine.now (Network.engine t.network);
        retries = 0;
        timer = Engine.no_event;
      }
    in
    t.pending <- Some p;
    send_request t p;
    arm_timer t p

  let create ~network ~node ~dispatcher ~id ~server ?retry_timeout () =
    let t =
      {
        network;
        node;
        id;
        server;
        retry_timeout;
        next_ts = 0L;
        pending = None;
        completed = 0;
        retransmitted = 0;
      }
    in
    Dispatcher.register_client dispatcher id (fun rx ->
        match rx.Message.rx_env.Message.msg with
        | Message.Reply r -> on_reply t r
        | _ -> ());
    t

  let node t = t.node
end

type 'server deployment = {
  network : Network.t;
  server : 'server;
  clients : Client.t list;
}

let deploy ~rng ?(server_name = "server") ?server_recv_buffer ~install
    ?client_machine_speed ~client_machines ~clients ?retry_timeout () =
  let network = Network.simulation ~rng () in
  let machine ?speed ?recv_buffer name =
    let cpu = Cpu.create (Network.engine network) ?speed () in
    Network.add_node network ~cpu ?recv_buffer ~name ()
  in
  let server_node = machine ?recv_buffer:server_recv_buffer server_name in
  let server = install network server_node in
  let machines =
    Array.of_list
      (List.map
         (fun name ->
           let node = machine ?speed:client_machine_speed name in
           (node, Dispatcher.install network node))
         client_machines)
  in
  let clients =
    List.init clients (fun i ->
        let node, dispatcher = machines.(i mod Array.length machines) in
        Client.create ~network ~node ~dispatcher ~id:(100 + i)
          ~server:server_node ?retry_timeout ())
  in
  { network; server; clients }
