(** Assembly of a complete simulated deployment, mirroring the paper's
    testbed: [n = 3f+1] replica machines plus a set of client machines
    (five in the throughput experiments), all on one switched 100 Mb/s
    Ethernet, every principal sharing pairwise MAC keys.

    Each replica gets its own instance of the service (from the factory),
    its own keychain and its own machine. Client processes are placed on
    client machines round-robin, as in the paper's "client processes were
    evenly distributed over 5 client machines". *)

type t

val create :
  ?cal:Bft_sim.Calibration.t ->
  ?seed:int ->
  ?client_machines:int ->
  ?client_machine_speed:float ->
  ?behaviors:(Types.replica_id * Behavior.t) list ->
  ?trace:Bft_trace.Trace.t ->
  ?network:Bft_net.Network.t ->
  ?name_prefix:string ->
  ?client_principal_base:int ->
  ?master:string ->
  config:Config.t ->
  service:(Types.replica_id -> Service.t) ->
  unit ->
  t
(** With [?network], the cluster joins an existing simulated network (and
    its engine) instead of creating its own — how sharded deployments run
    several independent replica groups on one simulation. In that mode the
    caller owns the engine, calibration and trace wiring ([?cal] and
    [?trace] are ignored), and should give each group a distinct
    [name_prefix] (prepended to machine names and per-replica series
    columns), [master] (key-derivation secret) and [client_principal_base]
    (default [n]; client principals are [base + i], and must be unique
    across groups for trace request ids to stay unambiguous). *)

val engine : t -> Bft_sim.Engine.t

val network : t -> Bft_net.Network.t

val replicas : t -> Replica.t array

val replica : t -> Types.replica_id -> Replica.t

val add_client : t -> Client.t
(** Create the next client process on the next client machine. *)

val clients : t -> Client.t list
(** In creation order. *)

val run : ?until:float -> t -> unit

val now : t -> float

val correct_replicas : t -> Replica.t list
(** Replicas whose injected behaviour is non-Byzantine. *)

(* --- runtime fault injection (chaos plans) --- *)

val replica_node : t -> Types.replica_id -> Bft_net.Network.node_id

val crash_replica : t -> Types.replica_id -> unit
(** Fail-stop the replica's machine: its datagrams are dropped both ways. *)

val restart_replica : t -> Types.replica_id -> unit
(** Bring the machine back up and reboot the replica from its last stable
    checkpoint ({!Replica.restart}). *)

val set_behavior : t -> Types.replica_id -> Behavior.t -> unit
(** Switch a replica's injected behaviour mid-run ({!Replica.set_behavior}). *)

val rng : t -> string -> Bft_util.Rng.t
(** Derive a labelled RNG from the cluster seed (for workloads). *)

(* --- profiling and time series --- *)

val profile : t -> Bft_trace.Profile.t
(** Per-machine, per-category CPU cost breakdown at this instant. Balanced
    by construction: each machine's category totals sum exactly to its
    {!Bft_sim.Cpu.total_busy}. *)

val series_names : t -> string array
(** Column set for {!sample_series}: network totals, per-replica protocol
    gauges and CPU busy time, client op counters. Depends only on the
    configuration, so same-seed runs produce identical series. *)

val sample_series :
  ?while_:(unit -> bool) -> t -> Bft_trace.Series.t -> interval:float -> unit
(** Record a snapshot of the {!series_names} columns every [interval] virtual
    seconds, starting one interval from now, for as long as [while_]
    returns [true] (default: forever — note the pending timer then keeps
    the engine alive until its [until] horizon). The series must have been
    created with [~names:(series_names t)]. *)

(* --- health monitoring --- *)

val attach_monitor :
  ?while_:(unit -> bool) ->
  ?meta:(string * string) list ->
  t ->
  Bft_trace.Monitor.t ->
  unit
(** Arm the monitor's flight recorder with the network's trace, {!profile}
    and [meta] (default none) plus [cost_profile] as the bundle header.
    Feed the monitor a health snapshot (per-replica protocol gauges and
    completed/rejected client operations; a replica whose machine is down
    reports [r_reachable = false], as a real scraper would) every 50
    virtual milliseconds for as long as [while_] returns [true] (default:
    forever — the pending timer then keeps the engine alive until its
    [until] horizon, like {!sample_series}). Also installs latency probes
    ({!Client.set_latency_probe}) so every client — existing and future —
    feeds the monitor's SLO sketches on each completed operation.
    Observation is side-effect-free for the protocol: virtual-time results
    are bit-identical with and without an attached monitor. *)
