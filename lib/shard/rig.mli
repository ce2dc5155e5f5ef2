(** A sharded deployment: [groups] independent PBFT replica groups on one
    simulated network and one virtual-time engine.

    Each group is a full {!Bft_core.Cluster} — its own [3f+1] replica
    machines, client machines, key-derivation master secret and client
    principal range — but all machines hang off the same switch and all
    events run on the same engine, so a run over the whole deployment is
    still a single deterministic event loop: same seed, same trace, same
    numbers, regardless of how many groups there are.

    Groups do not talk to each other. Cross-group consistency is the
    router's job ({!Router}): every key belongs to exactly one group, so
    single-key operations need no cross-group protocol (the deployment
    shards the keyspace, it does not replicate it across groups). *)

type t

val create :
  ?cal:Bft_sim.Calibration.t ->
  ?seed:int ->
  ?client_machines:int ->
  ?trace:Bft_trace.Trace.t ->
  ?initial_groups:int ->
  groups:int ->
  config:Bft_core.Config.t ->
  service:(group:int -> Bft_core.Types.replica_id -> Bft_core.Service.t) ->
  unit ->
  t
(** Build the engine, the network, a {!Router.create} over [groups] groups
    (default slot count), and one cluster per group. Every group uses the
    same [config] (and so the same [n]); [client_machines] applies per
    group. [service] is called once per (group, replica) — each replica
    needs its own instance. Group [g]'s machines are named ["g<g>/…"], its
    seed is derived from [seed] by RNG splitting, and its client principals
    start at [n + g * 4096] so request ids stay unique across groups.

    [initial_groups] (default [groups]) starts the router over only the
    first [initial_groups] groups; the rest are built and running but own
    no slots until a live reshard ({!Reshard.extend}) hands them some.
    Cluster construction does not depend on [initial_groups], so adding
    spare capacity never perturbs the groups already serving. *)

val engine : t -> Bft_sim.Engine.t

val network : t -> Bft_net.Network.t

val router : t -> Router.t
(** The live routing table. Mutable: a reshard swaps it via {!set_router},
    so routing decisions must re-read it per dispatch, not cache it. *)

val set_router : t -> Router.t -> unit
(** Flip the routing table (reshard driver only). The slot count must not
    change and the group count must fit the rig's built clusters. *)

val config : t -> Bft_core.Config.t

val group_count : t -> int
(** Groups the live router routes to. *)

val group_capacity : t -> int
(** Groups the rig has built (≥ {!group_count}); the surplus are reshard
    targets. *)

val alloc_proxy_ordinal : t -> int
(** Next proxy ordinal (0, 1, …): a stable per-rig identity used to label
    each proxy's backoff RNG stream. *)

val cluster : t -> int -> Bft_core.Cluster.t
(** The [g]-th replica group. *)

(** {2 Slot gating}

    During a live reshard the migrating slot is fenced: proxies count
    themselves in and out of slots they are mutating, and park behind a
    migrating slot until the flip completes. Only key-addressed mutating
    traffic participates — reads and transaction-resolution operations
    (Commit / Abort / Txn_status) bypass the gate, which is safe because
    the donor refuses to snapshot a slot holding locks. *)

val slot_migrating : t -> int -> bool

val slot_inflight : t -> int -> int

val acquire_slot : t -> int -> unit

val release_slot : t -> int -> unit

val hold_slot : t -> slot:int -> (unit -> unit) -> unit
(** Park a continuation until the slot's migration ends. The continuation
    must re-enter routing from scratch (the owner group has changed). *)

val begin_slot_migration : t -> int -> unit

val end_slot_migration : t -> int -> unit
(** Clears the fence and releases every parked continuation, in arrival
    order. *)

val clusters : t -> Bft_core.Cluster.t array

val run : ?until:float -> t -> unit

val now : t -> float

val profile : t -> Bft_trace.Profile.t
(** Per-machine CPU cost breakdown over every machine of every group
    (balanced the same way {!Bft_core.Cluster.profile} is). *)

val rng : t -> string -> Bft_util.Rng.t
(** Derive a labelled RNG from the rig seed (for workloads). Advances the
    rig's root generator: call order matters for reproducibility. *)

val fork_rng : t -> string -> Bft_util.Rng.t
(** Like {!rng} but pure ({!Bft_util.Rng.fork}): does not advance the rig
    root, so it cannot perturb other derivations. Labels must be unique
    across all [fork_rng] calls on an untouched root. *)

(* --- health monitoring --- *)

val attach_monitors : t -> Bft_trace.Monitor.t array
(** One health monitor per replica group, labelled ["g<g>/"] and attached
    via {!Bft_core.Cluster.attach_monitor} (so each group's gauges and
    client latencies feed its own detectors and SLO sketches). Returned in
    group order. *)

(** Fleet-wide rollup over per-group monitors: alert totals, summed
    throughput, the worst latency p99 (nan until any group has samples),
    and worst-case checkpoint lag. *)
type rollup = {
  ru_alerts : int;
  ru_groups_alerting : int;
  ru_throughput : float;
  ru_worst_p99 : float;
  ru_view_changes : int;
  ru_checkpoint_lag : int;
  ru_replay_drops : int;
}

val health_rollup : Bft_trace.Monitor.t array -> rollup

val rollup_line : rollup -> string
(** One-line operator rendering of a {!health_rollup}. *)
