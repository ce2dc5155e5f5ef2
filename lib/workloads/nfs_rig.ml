open Bft_core
module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Network = Bft_net.Network
module Rng = Bft_util.Rng
module Monitor = Bft_trace.Monitor
module Proto = Bft_nfs.Proto
module Nfs_service = Bft_nfs.Nfs_service
module Nfs_std = Bft_nfs.Nfs_std

type backend = Bfs | Norep_fs | Nfs_std_fs

let backend_name = function
  | Bfs -> "BFS"
  | Norep_fs -> "NO-REP"
  | Nfs_std_fs -> "NFS-STD"

type t = {
  network : Network.t;
  client_cpu : Cpu.t;
  invoke : read_only:bool -> Payload.t -> (Payload.t -> unit) -> unit;
  server_fs : Bft_nfs.Fs.t option;
}

let engine t = Network.engine t.network

let server_fs t = t.server_fs

let profile t = Network.profile t.network

(* The unreplicated backends differ only in the server [install] puts on
   the server machine (it returns the server's file system). There are no
   replica gauges to scrape; the monitor still gets every call latency for
   its SLO sketches. *)
let unreplicated ~seed ?server_name ~install ?monitor () =
  let rig =
    Norep.deploy ~rng:(Rng.of_int seed) ?server_name ~install
      ~client_machines:[ "client" ] ~clients:1 ~retry_timeout:0.3 ()
  in
  let network = rig.Norep.network in
  let engine = Network.engine network in
  let client = List.hd rig.Norep.clients in
  let invoke ~read_only:_ op k =
    let started = Engine.now engine in
    Norep.Client.invoke client op (fun o ->
        Option.iter
          (fun m -> Monitor.observe_latency m (Engine.now engine -. started))
          monitor;
        k o.Norep.Client.result)
  in
  {
    network;
    client_cpu = Network.node_cpu network (Norep.Client.node client);
    invoke;
    server_fs = rig.Norep.server;
  }

let make backend ?(params = Nfs_service.default_params) ?monitor () =
  let seed = 42 in
  match backend with
  | Bfs ->
    let config = Config.make ~f:1 () in
    let services = Array.init config.Config.n (fun _ -> Nfs_service.create ~params ()) in
    let cluster =
      Cluster.create ~seed ~client_machines:1 ~config
        ~service:(fun i -> services.(i)) ()
    in
    let client = Cluster.add_client cluster in
    (* Gauges and client latencies both flow through the cluster hook. *)
    Option.iter (fun m -> Cluster.attach_monitor cluster m) monitor;
    let invoke ~read_only op k =
      Client.invoke client ~read_only op (fun outcome -> k outcome.Client.result)
    in
    let network = Cluster.network cluster in
    {
      network;
      client_cpu = Network.node_cpu network (config.Config.n (* machine 0 *));
      invoke;
      server_fs = Nfs_service.fs_of services.(0);
    }
  | Norep_fs ->
    unreplicated ~seed ?monitor
      ~install:(fun network node ->
        let service = Nfs_service.create ~params () in
        ignore (Norep.Server.create ~network ~node ~service ());
        Nfs_service.fs_of service)
      ()
  | Nfs_std_fs ->
    unreplicated ~seed ?monitor ~server_name:"nfsd"
      ~install:(fun network node ->
        Some (Nfs_std.fs (Nfs_std.create ~network ~node ~params ())))
      ()

type step = Compute of float | Call of Proto.call | Phase of string

let run t ?(on_phase = fun ~name:_ ~elapsed:_ -> ()) ~on_done steps =
  let engine = engine t in
  let started = Engine.now engine in
  let phase_started = ref started in
  let calls = ref 0 in
  let rec exec = function
    | [] ->
      on_done ~elapsed:(Engine.now engine -. started) ~calls:!calls
    | Compute dt :: rest ->
      Cpu.charge t.client_cpu dt;
      Engine.schedule_at engine (Cpu.busy_until t.client_cpu) (fun () -> exec rest)
    | Call call :: rest ->
      incr calls;
      t.invoke ~read_only:(Proto.is_read_only call) (Proto.encode_call call)
        (fun _reply -> exec rest)
    | Phase name :: rest ->
      let now = Engine.now engine in
      on_phase ~name ~elapsed:(now -. !phase_started);
      phase_started := now;
      exec rest
  in
  exec steps
