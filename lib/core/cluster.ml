module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration
module Network = Bft_net.Network
module Keychain = Bft_crypto.Keychain
module Fingerprint = Bft_crypto.Fingerprint
module Monitor = Bft_trace.Monitor
module Trace = Bft_trace.Trace
module Rng = Bft_util.Rng
module Int_tbl = Bft_util.Dense.Int_tbl

type client_machine = {
  cm_node : Network.node_id;
  cm_dispatcher : Dispatcher.t;
}

type t = {
  engine : Engine.t;
  cal : Calibration.t;
  network : Network.t;
  config : Config.t;
  master : string;
  name_prefix : string;
  client_principal_base : int;
  root_rng : Rng.t;
  replicas : Replica.t array;
  book : Transport.peer Int_tbl.t;
      (* the address book: the machine of every replica and admitted client *)
  replica_transports : Transport.t array;
  replay_rings : Behavior.ring array;
  client_machines : client_machine array;
  principals : Keychain.deployment;  (* shared by every keychain below *)
  env : transport:Transport.t -> Env.t;  (* every principal's effects *)
  mutable clients : Client.t list;  (* newest first *)
  mutable monitors : Monitor.t list;  (* attached health monitors *)
}

let engine t = t.engine

let network t = t.network

let replicas t = t.replicas

let replica t i = t.replicas.(i)

let clients t = List.rev t.clients

let now t = Engine.now t.engine

let run ?until t = Engine.run ?until t.engine

let rng t label = Rng.split t.root_rng label

let correct_replicas t =
  Array.to_list t.replicas
  |> List.filter (fun r -> Behavior.is_correct (Replica.behavior r))

let replica_node t i = (Int_tbl.find t.book i).Transport.node

let crash_replica t i = Network.set_up t.network (replica_node t i) false

let restart_replica t i =
  Network.set_up t.network (replica_node t i) true;
  Behavior.forget t.replay_rings.(i);
  Replica.restart t.replicas.(i)

let set_behavior t i b =
  Replica.set_behavior t.replicas.(i) b;
  Transport.set_corrupt_auth t.replica_transports.(i) (b = Behavior.Forge_auth)

let profile t = Network.profile t.network

(* --- time-series sampling --------------------------------------------- *)

(* A client-side counter summed over every client created so far. *)
let client_count t counter =
  List.fold_left (fun acc c -> acc + Client.count c counter) 0 t.clients

(* Fixed column set, each column a (name, read) pair: network totals,
   per-replica protocol gauges and CPU busy time, and client-side op
   counters summed over all clients created so far. Names depend only on
   the configuration, so same-seed runs produce identical series. *)
let series_columns t =
  let fi = float_of_int and net = t.network in
  [
    ("net.sent", fun () -> fi (Network.sent_datagrams net));
    ("net.delivered", fun () -> fi (Network.delivered_datagrams net));
    ("net.dropped", fun () -> fi (Network.dropped_datagrams net));
    ("net.bytes", fun () -> fi (Network.bytes_on_wire net));
  ]
  @ List.concat
      (List.init t.config.Config.n (fun i ->
           let r = t.replicas.(i) and cpu = Network.node_cpu net (replica_node t i) in
           let col what read = (Printf.sprintf "%sr%d.%s" t.name_prefix i what, read) in
           [
             col "view" (fun () -> fi (Replica.view r));
             col "executed" (fun () -> fi (Replica.last_executed r));
             col "committed" (fun () -> fi (Replica.last_committed r));
             col "busy" (fun () -> Cpu.total_busy cpu);
           ]))
  @ List.map
      (fun (name, counter) -> (name, fun () -> fi (client_count t counter)))
      [
        ("clients.started", Client.Started);
        ("clients.completed", Client.Completed);
        ("clients.retransmitted", Client.Retransmitted);
      ]

let series_names t = Array.of_list (List.map fst (series_columns t))

(* Run [f] every [interval] virtual seconds for as long as [while_] holds. *)
let every t ~interval ~while_ f =
  let rec tick () =
    if while_ () then begin
      f ();
      Engine.schedule t.engine ~delay:interval tick
    end
  in
  Engine.schedule t.engine ~delay:interval tick

let sample_series ?(while_ = fun () -> true) t series ~interval =
  if interval <= 0.0 then invalid_arg "Cluster.sample_series: interval";
  let reads = Array.of_list (List.map snd (series_columns t)) in
  every t ~interval ~while_ (fun () ->
      Bft_trace.Series.record series ~vtime:(Engine.now t.engine)
        (Array.map (fun read -> read ()) reads))

(* --- health monitoring ------------------------------------------------ *)

(* Snapshot the per-replica protocol gauges the health monitor consumes.
   Pure reads over live state (no CPU charges, no RNG), so attaching a
   monitor cannot perturb the simulation. A replica whose node is down is
   reported unreachable — the monitor sees what a real scraper would. *)
let health_gauges t =
  let g_replicas =
    Array.mapi
      (fun i r ->
        {
          Monitor.r_id = i;
          r_reachable = Network.is_up t.network (replica_node t i);
          r_view = Replica.view r;
          r_last_executed = Replica.last_executed r;
          r_last_committed = Replica.last_committed r;
          r_last_stable = Replica.last_stable r;
          r_stable_digest =
            Format.asprintf "%a" Fingerprint.pp (Replica.stable_digest r);
          r_queue_depth = Replica.queue_depth r;
          r_backlog = Replica.backlog r;
          r_log_depth = Replica.log_depth r;
          r_replay_dropped =
            Metrics.count (Replica.metrics r) "auth.replay_dropped";
          r_shed = Replica.sheds r;
          r_null_fill = Metrics.count (Replica.metrics r) "rotate.null_fill";
          r_reclaim = Metrics.count (Replica.metrics r) "rotate.reclaim";
          r_ordering_owner = Replica.ordering_owner r;
        })
      t.replicas
  in
  {
    Monitor.g_time = Engine.now t.engine;
    g_completed = client_count t Client.Completed;
    g_rejected = client_count t Client.Rejected;
    g_replicas;
  }

let monitor_probe t latency =
  List.iter (fun m -> Monitor.observe_latency m latency) t.monitors

(* Gauges are scraped every 50 virtual ms; the detectors' thresholds are
   set against this cadence. *)
let attach_monitor ?(while_ = fun () -> true) ?(meta = []) t mon =
  Monitor.set_flight_recorder ~trace:(Network.trace t.network)
    ~profile:(fun () -> profile t)
    ~meta:(meta @ [ ("cost_profile", Calibration.name t.cal) ])
    mon;
  t.monitors <- mon :: t.monitors;
  List.iter (fun c -> Client.set_latency_probe c (monitor_probe t)) t.clients;
  every t ~interval:0.05 ~while_ (fun () -> Monitor.observe mon (health_gauges t))

(* --- principal effects --------------------------------------------------- *)

let timer_slot = function
  | Env.Vc_timer -> 0
  | Env.Resend_timer -> 1
  | Env.Flush_timer -> 2
  | Env.State_timer -> 3

(* Every principal's effects over [network]: [principal_env network ~book
   ~n ~transport] is the record of [transport]'s principal, replica or
   client, over that transport, its machine's CPU, the network's engine and
   trace sink, with an engine event per timer slot. [book] maps each
   principal to its machine: [send] looks its destination up there, and
   [multicast] goes to the replicas [0 .. n-1] but this principal. The
   members that read only the engine or the trace sink, and the replica
   list every client multicasts to, are built once, when [principal_env
   network ~book ~n] is applied (with the replicas in [book]), and shared
   by every record. *)
let principal_env network ~book ~n =
  let engine = Network.engine network and sink = Network.trace network in
  let replicas = List.init n (Int_tbl.find book) in
  let after ~delay fn = Engine.schedule engine ~delay fn
  and now () = Engine.now engine
  and trace ~vtime ~node ?seqno ?view ?req_id ?detail kind =
    if Trace.enabled sink then
      Trace.emit sink ~vtime:(vtime ()) ~node ?seqno ?view ?req_id ?detail kind
  in
  fun ~transport ->
    let cpu = Network.node_cpu network (Transport.node transport) in
    let self = Transport.principal transport in
    let others =
      if self < n then List.filter (fun (p : Transport.peer) -> p.principal <> self) replicas
      else replicas
    in
    let timers = Array.make 4 Engine.no_event in
    {
      Env.send =
        (fun dst msg ->
          (* A principal with no machine (never admitted, or outside the
             deployment) has nowhere to receive: the send is dropped. *)
          match Int_tbl.find book dst with
          | peer -> Transport.send transport ~dst:peer msg
          | exception Not_found -> ());
      multicast =
        (fun ~commits msg -> Transport.multicast transport ~commits ~dsts:others msg);
      check = Transport.check transport;
      arm =
        (fun timer ~delay fn ->
          let i = timer_slot timer in
          Engine.cancel timers.(i);
          timers.(i) <- Engine.schedule_event engine ~delay fn);
      cancel =
        (fun timer ->
          (* Dropping the cancelled event lets its callback, and whatever
             that holds (a client's completed operation), die young. *)
          let i = timer_slot timer in
          Engine.cancel timers.(i);
          timers.(i) <- Engine.no_event);
      armed = (fun timer -> Engine.is_scheduled timers.(timer_slot timer));
      after;
      charge = (fun ?cat cost -> Cpu.charge ?cat cpu cost);
      now;
      cpu_now = (fun () -> Cpu.virtual_now cpu);
      trace;
    }

let create ?(cal = Calibration.default) ?(seed = 42) ?(client_machines = 5)
    ?(client_machine_speed = 1.0) ?(behaviors = [])
    ?(trace = Bft_trace.Trace.nil) ?network ?(name_prefix = "")
    ?client_principal_base ?master ~config ~service () =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
  let root_rng = Rng.of_int seed in
  (* A shared simulation (sharded deployments) comes with its caller's
     engine, calibration and trace wiring. *)
  let network =
    match network with
    | Some net -> net
    | None ->
      Network.simulation ~cal ~trace ~rng:(Rng.split root_rng "network") ()
  in
  let engine = Network.engine network and cal = Network.calibration network in
  let n = config.Config.n in
  let master =
    match master with
    | Some m -> m
    | None -> Printf.sprintf "cluster-master-secret-%d" seed
  in
  let client_principal_base = Option.value ~default:n client_principal_base in
  let principals = Keychain.deployment ~replicas:n ~client_base:client_principal_base in
  let node_name fmt = Printf.ksprintf (fun s -> name_prefix ^ s) fmt in
  (* Replica machines. *)
  let replica_nodes =
    Array.init n (fun i ->
        let name = node_name "replica%d" i in
        let cpu = Cpu.create engine () in
        Network.add_node network ~cpu ~name ())
  in
  let book = Int_tbl.create 64 in
  Array.iteri
    (fun i node -> Int_tbl.replace book i { Transport.principal = i; node })
    replica_nodes;
  (* Client machines (the paper used 5, two of them 700 MHz). *)
  let client_machines =
    Array.init (Stdlib.max 1 client_machines) (fun i ->
        let name = node_name "clientm%d" i in
        let cpu = Cpu.create engine ~speed:client_machine_speed () in
        let node = Network.add_node network ~cpu ~name () in
        { cm_node = node; cm_dispatcher = Dispatcher.install network node })
  in
  let trail = Trail.group () in
  let env = principal_env network ~book ~n in
  let replay_rings = Array.init n (fun _ -> Behavior.ring ()) in
  let members =
    Array.init n (fun i ->
        let keychain = Keychain.create ~master ~self:i principals in
        let transport =
          Transport.create network ~keychain ~node:replica_nodes.(i)
            ~public_key_signatures:config.Config.public_key_signatures ()
        in
        let dispatcher = Dispatcher.install network replica_nodes.(i) in
        let behavior =
          Option.value ~default:Behavior.Correct (List.assoc_opt i behaviors)
        in
        (match behavior with
        | Behavior.Crash_at when_ ->
          Engine.schedule_at engine when_ (fun () ->
              Network.set_up network replica_nodes.(i) false)
        | _ -> ());
        Transport.set_corrupt_auth transport (behavior = Behavior.Forge_auth);
        let other_nodes =
          List.filter (fun node -> node <> replica_nodes.(i)) (Array.to_list replica_nodes)
        in
        (* The wire faults read the replica's behaviour at every call, so
           [set_behavior] switches them too, and count its replays; neither
           runs before [create] returns. *)
        let rec replica =
          lazy
            (Replica.create ~config
               ~env:
                 (Behavior.env
                    ~current:(fun () -> Replica.behavior (Lazy.force replica))
                    ~rng:(Rng.split root_rng (Printf.sprintf "replica%d" i))
                    ~ring:replay_rings.(i)
                    ~inject:(fun ~wire ~size ->
                      Metrics.incr
                        (Replica.metrics (Lazy.force replica))
                        "replay.injected";
                      Network.multicast network ~src:replica_nodes.(i)
                        ~dsts:other_nodes ~size wire)
                    (env ~transport))
               ~keychain ~cal
               ~service:(service i) ~behavior ~trail ())
        in
        let replica = Lazy.force replica in
        Dispatcher.register_default dispatcher (Replica.receive replica);
        (replica, transport))
  in
  let replicas = Array.map fst members
  and replica_transports = Array.map snd members in
  {
    engine;
    cal;
    network;
    config;
    master;
    name_prefix;
    client_principal_base;
    root_rng;
    replicas;
    book;
    replica_transports;
    replay_rings;
    client_machines;
    principals;
    env;
    clients = [];
    monitors = [];
  }

let add_client t =
  let principal = Keychain.admit_client t.principals in
  let idx = principal - t.client_principal_base in
  let machine = t.client_machines.(idx mod Array.length t.client_machines) in
  Int_tbl.replace t.book principal { Transport.principal; node = machine.cm_node };
  let keychain = Keychain.create ~master:t.master ~self:principal t.principals in
  let transport =
    Transport.create t.network ~keychain ~node:machine.cm_node
      ~public_key_signatures:t.config.Config.public_key_signatures ()
  in
  let client =
    Client.create ~config:t.config
      ~env:(t.env ~transport)
      ~id:principal
      ~rng:(Rng.split t.root_rng (Printf.sprintf "client%d" principal))
      ()
  in
  Dispatcher.register_client machine.cm_dispatcher principal (Client.receive client);
  t.clients <- client :: t.clients;
  Client.set_latency_probe client (monitor_probe t);
  client
