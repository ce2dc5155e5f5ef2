module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration
module Network = Bft_net.Network
module Keychain = Bft_crypto.Keychain
module Fingerprint = Bft_crypto.Fingerprint
module Monitor = Bft_trace.Monitor
module Rng = Bft_util.Rng

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
  replica_peers : Transport.peer array;
  client_machines : client_machine array;
  client_peers : (Types.client_id, Transport.peer) Hashtbl.t;
  mutable clients : Client.t list;  (* newest first *)
  mutable next_client : int;
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

let replica_node t i = t.replica_peers.(i).Transport.node

let crash_replica t i = Network.set_up t.network (replica_node t i) false

let restart_replica t i =
  Network.set_up t.network (replica_node t i) true;
  Replica.restart t.replicas.(i)

let set_behavior t i b = Replica.set_behavior t.replicas.(i) b

let profile t = Network.profile t.network

(* --- time-series sampling --------------------------------------------- *)

(* Fixed column set: network totals, per-replica protocol gauges and CPU
   busy time, and client-side op counters summed over all clients created
   so far. Names depend only on the configuration, so same-seed runs
   produce identical series. *)
let series_names t =
  let n = t.config.Config.n in
  let p = t.name_prefix in
  Array.of_list
    ([ "net.sent"; "net.delivered"; "net.dropped"; "net.bytes" ]
    @ List.concat
        (List.init n (fun i ->
             [
               Printf.sprintf "%sr%d.view" p i;
               Printf.sprintf "%sr%d.executed" p i;
               Printf.sprintf "%sr%d.committed" p i;
               Printf.sprintf "%sr%d.busy" p i;
             ]))
    @ [ "clients.started"; "clients.completed"; "clients.retransmitted" ])

(* A client-side counter summed over every client created so far. *)
let client_count t name =
  List.fold_left (fun acc c -> acc + Metrics.count (Client.metrics c) name) 0 t.clients

let series_values t =
  let fi = float_of_int in
  Array.of_list
    ([
       fi (Network.sent_datagrams t.network);
       fi (Network.delivered_datagrams t.network);
       fi (Network.dropped_datagrams t.network);
       fi (Network.bytes_on_wire t.network);
     ]
    @ List.concat
        (Array.to_list
           (Array.mapi
              (fun i r ->
                [
                  fi (Replica.view r);
                  fi (Replica.last_executed r);
                  fi (Replica.last_committed r);
                  Cpu.total_busy (Network.node_cpu t.network (replica_node t i));
                ])
              t.replicas))
    @ [
        fi (client_count t "ops.started");
        fi (client_count t "ops.completed");
        fi (client_count t "ops.retransmitted");
      ])

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
  every t ~interval ~while_ (fun () ->
      Bft_trace.Series.record series ~vtime:(Engine.now t.engine)
        (series_values t))

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
    g_completed = client_count t "ops.completed";
    g_rejected = client_count t "ops.rejected";
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
  if client_principal_base < n then
    invalid_arg "Cluster.create: client principals must not collide with replicas";
  let node_name fmt = Printf.ksprintf (fun s -> name_prefix ^ s) fmt in
  (* Replica machines. *)
  let replica_nodes =
    Array.init n (fun i ->
        let name = node_name "replica%d" i in
        let cpu = Cpu.create engine () in
        Network.add_node network ~cpu ~name ())
  in
  let replica_peers =
    Array.init n (fun i -> { Transport.principal = i; node = replica_nodes.(i) })
  in
  (* Client machines (the paper used 5, two of them 700 MHz). *)
  let client_machines =
    Array.init (Stdlib.max 1 client_machines) (fun i ->
        let name = node_name "clientm%d" i in
        let cpu = Cpu.create engine ~speed:client_machine_speed () in
        let node = Network.add_node network ~cpu ~name () in
        { cm_node = node; cm_dispatcher = Dispatcher.install network node })
  in
  let client_peers = Hashtbl.create 64 in
  let lookup_client c = Hashtbl.find_opt client_peers c in
  let replicas =
    Array.init n (fun i ->
        let keychain = Keychain.create ~master ~self:i ~replica_bound:n () in
        let transport =
          Transport.create network ~keychain ~node:replica_nodes.(i)
            ~public_key_signatures:config.Config.public_key_signatures ()
        in
        let dispatcher = Dispatcher.install network replica_nodes.(i) in
        let behavior =
          Option.value ~default:Behavior.Correct (List.assoc_opt i behaviors)
        in
        Replica.create ~config ~transport ~replicas:replica_peers ~lookup_client
          ~service:(service i)
          ~rng:(Rng.split root_rng (Printf.sprintf "replica%d" i))
          ~dispatcher ~behavior ())
  in
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
    replica_peers;
    client_machines;
    client_peers;
    clients = [];
    next_client = 0;
    monitors = [];
  }

let add_client t =
  let idx = t.next_client in
  t.next_client <- idx + 1;
  let principal = t.client_principal_base + idx in
  let machine = t.client_machines.(idx mod Array.length t.client_machines) in
  Hashtbl.replace t.client_peers principal
    { Transport.principal; node = machine.cm_node };
  let keychain =
    Keychain.create ~master:t.master ~self:principal
      ~replica_bound:t.config.Config.n ()
  in
  let transport =
    Transport.create t.network ~keychain ~node:machine.cm_node
      ~public_key_signatures:t.config.Config.public_key_signatures ()
  in
  let client =
    Client.create ~config:t.config ~transport ~replicas:t.replica_peers
      ~rng:(Rng.split t.root_rng (Printf.sprintf "client%d" principal))
      ~dispatcher:machine.cm_dispatcher ()
  in
  t.clients <- client :: t.clients;
  Client.set_latency_probe client (monitor_probe t);
  client
