open Bft_core
module Engine = Bft_sim.Engine
module Calibration = Bft_sim.Calibration
module Network = Bft_net.Network
module Stats = Bft_util.Stats
module Rng = Bft_util.Rng

type latency_result = { mean : float; stddev : float; ops : int }

type throughput_result = {
  ops_per_sec : float;
  completed : int;
  stalled_clients : int;
  retransmissions : int;
  drops_by_node : (string * int * int) list;
      (** (host, dropped, overflowed), hosts that dropped at least one *)
}

let client_speed = 700.0 /. 600.0  (* the paper's latency client was 700 MHz *)

let client_machines = 5

let latency_warmup = 8

(* The back-to-back loop behind both latency figures: [latency_warmup]
   discarded operations, then [ops] measured ones, each invoked when the
   previous one completes. [invoke k] issues one operation and calls [k]
   with its latency. [observe running] runs before the first operation, to
   attach samplers that stop once [running ()] turns false — so sampling
   timers do not keep the engine running to its horizon. *)
let back_to_back ?(observe = ignore) ~ops engine invoke =
  let stats = Stats.create () in
  let remaining = ref (latency_warmup + ops) in
  observe (fun () -> !remaining > 0 || Stats.count stats < ops);
  let rec loop () =
    if !remaining > 0 then begin
      decr remaining;
      invoke (fun latency ->
          if !remaining < ops then Stats.add stats latency;
          loop ())
    end
  in
  loop ();
  Engine.run ~until:120.0 engine;
  { mean = Stats.mean stats; stddev = Stats.stddev stats; ops = Stats.count stats }

(* Shared latency rig; returns the cluster (and the optional series ring)
   so profiling callers can read CPU state after the run. *)
let latency_run ?(config = Config.make ~f:1 ()) ?(ops = 200) ?(seed = 42)
    ?(cal = Calibration.default) ?(trace = Bft_trace.Trace.nil) ?series_every
    ?monitor ~arg ~res ~read_only () =
  let cluster =
    Cluster.create ~cal ~seed ~client_machines:1
      ~client_machine_speed:client_speed ~trace ~config
      ~service:(fun _ -> Service.null ()) ()
  in
  let client = Cluster.add_client cluster in
  let op = Service.null_op ~read_only ~arg_size:arg ~result_size:res in
  let series =
    Option.map
      (fun interval ->
        (interval, Bft_trace.Series.create ~names:(Cluster.series_names cluster) ()))
      series_every
  in
  let observe running =
    Option.iter (fun m -> Cluster.attach_monitor ~while_:running cluster m) monitor;
    Option.iter
      (fun (interval, s) ->
        Cluster.sample_series ~while_:running cluster s ~interval)
      series
  in
  let result =
    back_to_back ~observe ~ops (Cluster.engine cluster) (fun k ->
        Client.invoke client ~read_only op (fun o -> k o.Client.latency))
  in
  (cluster, Option.map snd series, result)

let bft_latency ?config ?ops ?seed ?cal ?trace ?monitor ~arg ~res ~read_only ()
    =
  let _, _, r =
    latency_run ?config ?ops ?seed ?cal ?trace ?monitor ~arg ~res ~read_only ()
  in
  r

type owner_row = {
  ow_id : int;
  ow_batches : int;
  ow_null_fill : int;
  ow_reclaim : int;
}

type profile_result = {
  pf_latency : latency_result;
  pf_profile : Bft_trace.Profile.t;
  pf_crypto : Bft_crypto.Tally.snapshot;
  pf_series : Bft_trace.Series.t option;
  pf_owners : owner_row list;
}

let bft_profile ?config ?ops ?seed ?cal ?trace ?series_every ?monitor ~arg
    ~res ~read_only () =
  Bft_crypto.Tally.reset ();
  let cluster, series, lat =
    latency_run ?config ?ops ?seed ?cal ?trace ?series_every ?monitor ~arg ~res
      ~read_only ()
  in
  let owners =
    Array.to_list
      (Array.map
         (fun r ->
           let m = Replica.metrics r in
           {
             ow_id = Replica.id r;
             ow_batches = Metrics.count m "batch.sent";
             ow_null_fill = Metrics.count m "rotate.null_fill";
             ow_reclaim = Metrics.count m "rotate.reclaim";
           })
         (Cluster.replicas cluster))
  in
  {
    pf_latency = lat;
    pf_profile = Cluster.profile cluster;
    pf_crypto = Bft_crypto.Tally.snapshot ();
    pf_series = series;
    pf_owners = owners;
  }

(* The NO-REP rig of Figures 2–4: a null service on a server with stock
   (small) socket buffers — the reason the paper's Figure 4 has no NO-REP
   points past 15 clients for 4/0 — and [machines] client machines. *)
let norep_rig ~seed ~machines ~clients ~retry =
  Norep.deploy
    ~rng:(Rng.split (Rng.of_int seed) "network")
    ~server_recv_buffer:0.005
    ~install:(fun network node ->
      Norep.Server.create ~network ~node ~service:(Service.null ()) ())
    ?client_machine_speed:(if machines = 1 then Some client_speed else None)
    ~client_machines:(List.init machines (Printf.sprintf "clientm%d"))
    ~clients
    ?retry_timeout:(if retry then Some 0.15 else None)
    ()

let norep_latency ?(ops = 200) ~arg ~res () =
  let rig = norep_rig ~seed:42 ~machines:1 ~clients:1 ~retry:true in
  let client = List.hd rig.Norep.clients in
  let op = Service.null_op ~read_only:false ~arg_size:arg ~result_size:res in
  back_to_back ~ops (Network.engine rig.Norep.network) (fun k ->
      Norep.Client.invoke client op (fun o -> k o.Norep.Client.latency))

let drops_by_node network =
  List.filter_map
    (fun (name, _sent, _delivered, dropped, overflowed) ->
      if dropped > 0 then Some (name, dropped, overflowed) else None)
    (Network.per_node_counters network)

let measure_window ?(at_window = ignore) engine ~warmup ~window counts =
  Engine.run ~until:warmup engine;
  let before = counts () in
  at_window ();
  Engine.run ~until:(warmup +. window) engine;
  let after = counts () in
  ( List.fold_left2 (fun acc a b -> acc + (b - a)) 0 before after,
    List.fold_left2 (fun acc a b -> if b = a then acc + 1 else acc) 0 before after )

(* The closed loop behind every throughput figure: each client's loop
   starts at an offset in [0, 0.1) s drawn from the seed's "stagger"
   stream — real benchmark clients never fire in the same microsecond, and
   a synchronized burst of large requests would blow through any receive
   buffer — and the run is then measured by [measure_window]. *)
let closed_loop ?at_window engine ~seed ~warmup ~window ~loops counts =
  let stagger = Rng.split (Rng.of_int seed) "stagger" in
  List.iter
    (fun loop -> Engine.schedule engine ~delay:(Rng.float stagger 0.1) loop)
    loops;
  measure_window ?at_window engine ~warmup ~window counts

let count_all metrics name clients =
  List.fold_left (fun acc c -> acc + Metrics.count (metrics c) name) 0 clients

let bft_throughput ?(config = Config.make ~f:1 ()) ?(seed = 42) ?(warmup = 0.5)
    ?(window = 1.0) ?(cal = Calibration.default)
    ?(trace = Bft_trace.Trace.nil) ?monitor ~arg ~res ~read_only ~clients () =
  let cluster =
    Cluster.create ~cal ~seed ~client_machines ~trace ~config
      ~service:(fun _ -> Service.null ()) ()
  in
  (* The throughput rig only ever runs to explicit horizons, so the
     monitor's forever-timer cannot extend the run. *)
  Option.iter (fun m -> Cluster.attach_monitor cluster m) monitor;
  let op = Service.null_op ~read_only ~arg_size:arg ~result_size:res in
  let client_list = List.init clients (fun _ -> Cluster.add_client cluster) in
  let loop client =
    let rec loop () = Client.invoke client ~read_only op (fun _ -> loop ()) in
    loop
  in
  let completed, stalled =
    closed_loop (Cluster.engine cluster) ~seed ~warmup ~window
      ~loops:(List.map loop client_list) (fun () ->
        List.map (fun c -> Metrics.count (Client.metrics c) "ops.completed") client_list)
  in
  {
    ops_per_sec = float_of_int completed /. window;
    completed;
    stalled_clients = stalled;
    retransmissions = count_all Client.metrics "ops.retransmitted" client_list;
    drops_by_node = drops_by_node (Cluster.network cluster);
  }

(* --- sharded (multi-group) throughput ------------------------------- *)

type sharded_result = {
  sh_ops_per_sec : float;
  sh_completed : int;
  sh_per_group : int array;
  sh_stalled_clients : int;
  sh_retransmissions : int;
  sh_drops_by_node : (string * int * int) list;
  sh_monitors : Bft_trace.Monitor.t array;
}

(* Keys the sharded workloads draw from, uniformly. *)
let key_space = 4096

let sharded_throughput ?(seed = 42) ?(warmup = 0.5) ?(window = 1.0)
    ?(cal = Calibration.default) ?(trace = Bft_trace.Trace.nil) ?(health = false)
    ~groups ~clients_per_group () =
  let module Rig = Bft_shard.Rig in
  let module Proxy = Bft_shard.Proxy in
  let module Kv = Bft_services.Kv_store in
  let rig =
    Rig.create ~cal ~seed ~trace ~groups ~config:(Config.make ~f:1 ())
      ~service:(fun ~group:_ _ -> Kv.service ())
      ()
  in
  let monitors = if health then Rig.attach_monitors rig else [||] in
  let proxies =
    List.init (groups * clients_per_group) (fun _ -> Proxy.create rig)
  in
  let loops =
    List.mapi
      (fun i proxy ->
        let keys = Rig.rng rig (Printf.sprintf "proxy%d-keys" i) in
        let rec loop () =
          (* Uniform single-key writes: every op lands on whichever group
             owns the key, so the offered load spreads over all groups. *)
          let key = Printf.sprintf "k%04d" (Rng.int keys key_space) in
          Proxy.invoke proxy (Kv.Put (key, "v")) (fun _ -> loop ())
        in
        loop)
      proxies
  in
  let per_group () =
    let acc = Array.make groups 0 in
    List.iter
      (fun p -> Array.iteri (fun g c -> acc.(g) <- acc.(g) + c) (Proxy.completed p))
      proxies;
    acc
  in
  let before_g = ref [||] in
  let completed, stalled =
    closed_loop (Rig.engine rig) ~seed ~warmup ~window ~loops
      ~at_window:(fun () -> before_g := per_group ())
      (fun () -> List.map Proxy.total_completed proxies)
  in
  {
    sh_ops_per_sec = float_of_int completed /. window;
    sh_completed = completed;
    sh_per_group = Array.map2 ( - ) (per_group ()) !before_g;
    sh_stalled_clients = stalled;
    sh_retransmissions =
      List.fold_left (fun acc p -> acc + Proxy.retransmissions p) 0 proxies;
    sh_drops_by_node = drops_by_node (Rig.network rig);
    sh_monitors = monitors;
  }

(* --- mixed single-key / cross-shard transaction throughput ----------- *)

type mixed_result = {
  mx_ops_per_sec : float;
  mx_completed : int;
  mx_cross_committed : int;
  mx_cross_aborted : int;
}

(* Closed-loop drivers, each a {!Bft_shard.Txn} handle: with probability
   [cross_fraction] an operation is a two-key cross-group transaction
   (both keys written atomically through 2PC), otherwise a plain
   single-key put. Throughput counts completed client operations — a
   cross-shard transaction counts once, so the ops/s axis stays comparable
   across fractions while the 2PC overhead shows up directly. *)
let mixed_txn_throughput ?(seed = 42) ?(window = 1.0)
    ?(cal = Calibration.default) ~groups ~clients_per_group ~cross_fraction () =
  let module Rig = Bft_shard.Rig in
  let module Router = Bft_shard.Router in
  let module Txn = Bft_shard.Txn in
  let module Kv = Bft_services.Kv_store in
  if cross_fraction < 0.0 || cross_fraction > 1.0 then
    invalid_arg "mixed_txn_throughput: cross_fraction must be in [0, 1]";
  let rig =
    Rig.create ~cal ~seed ~groups ~config:(Config.make ~f:1 ())
      ~service:(fun ~group:_ _ -> Kv.service ())
      ()
  in
  let drivers =
    List.init (groups * clients_per_group) (fun _ -> Txn.create rig)
  in
  let completed = ref 0 in
  let cross_committed = ref 0 in
  let cross_aborted = ref 0 in
  let loops =
    List.mapi
      (fun i driver ->
        let keys = Rig.rng rig (Printf.sprintf "mixed%d-keys" i) in
        let pick () = Printf.sprintf "k%04d" (Rng.int keys key_space) in
        let rec loop () =
          if Rng.float keys 1.0 < cross_fraction then begin
            let k1 = pick () in
            (* Partner key in another group when the hash allows, and always
               a distinct key (transactions reject duplicates). *)
            let k2 =
              let router = Rig.router rig in
              let g1 = Router.group_of_key router k1 in
              let rec find tries =
                let cand = pick () in
                if
                  (not (String.equal cand k1))
                  && (Router.group_of_key router cand <> g1 || tries >= 8)
                then cand
                else find (tries + 1)
              in
              find 0
            in
            Txn.exec driver
              [ Kv.Put (k1, "v"); Kv.Put (k2, "v") ]
              (fun outcome ->
                incr completed;
                (match outcome with
                | Txn.Committed -> incr cross_committed
                | Txn.Aborted _ -> incr cross_aborted);
                loop ())
          end
          else
            Txn.invoke driver (Kv.Put (pick (), "v")) (fun _ ->
                incr completed;
                loop ())
        in
        loop)
      drivers
  in
  (* Transactions are tallied over the window only. *)
  let completed, _stalled =
    closed_loop (Rig.engine rig) ~seed ~warmup:0.5 ~window ~loops
      ~at_window:(fun () ->
        cross_committed := 0;
        cross_aborted := 0)
      (fun () -> [ !completed ])
  in
  {
    mx_ops_per_sec = float_of_int completed /. window;
    mx_completed = completed;
    mx_cross_committed = !cross_committed;
    mx_cross_aborted = !cross_aborted;
  }

let norep_throughput ?(seed = 42) ?(warmup = 0.5) ?(window = 1.0) ?(retry = false)
    ~arg ~res ~clients () =
  let rig = norep_rig ~seed ~machines:client_machines ~clients ~retry in
  let op = Service.null_op ~read_only:false ~arg_size:arg ~result_size:res in
  let loop client =
    let rec loop () = Norep.Client.invoke client op (fun _ -> loop ()) in
    loop
  in
  let client_list = rig.Norep.clients in
  let completed, stalled =
    closed_loop
      (Network.engine rig.Norep.network)
      ~seed ~warmup ~window
      ~loops:(List.map loop client_list)
      (fun () ->
        List.map
          (fun c -> Metrics.count (Norep.Client.metrics c) "ops.completed")
          client_list)
  in
  let ops_per_sec =
    if (not retry) && stalled * 4 > clients then nan
    else float_of_int completed /. window
  in
  {
    ops_per_sec;
    completed;
    stalled_clients = stalled;
    retransmissions =
      count_all Norep.Client.metrics "ops.retransmitted" client_list;
    drops_by_node = drops_by_node rig.Norep.network;
  }
