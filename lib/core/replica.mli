(** A BFT replica: the full state-machine-replication protocol.

    Normal case: the primary orders client requests into batches,
    multicasts PRE-PREPARE, backups answer with PREPARE; once a replica has
    the pre-prepare and [2f] matching prepares the request is {e prepared}
    and the replica multicasts COMMIT; with [2f+1] commits it is
    {e committed} and executed. The Section 3.1 optimizations — tentative
    execution, digest replies, read-only execution, batching with a sliding
    window, separate request transmission and piggybacked commits — are all
    implemented and individually toggleable via {!Config.t}.

    Faulty primaries are replaced through view changes; replicas that fall
    behind a stable checkpoint catch up through state transfer; proactive
    recovery refreshes keys and revalidates state.

    Simplification relative to the paper (documented in DESIGN.md):
    VIEW-CHANGE/NEW-VIEW messages are accepted on the strength of their
    per-receiver MAC entry alone, rather than through the extra
    acknowledgement rounds the full MAC-only view-change protocol uses to
    make one replica's authenticator transferable to another. The injected
    Byzantine behaviours do not forge other replicas' view-change claims,
    so the safety property tests remain meaningful. *)

type t

val create :
  config:Config.t ->
  env:Env.t ->
  keychain:Bft_crypto.Keychain.t ->
  cal:Bft_sim.Calibration.t ->
  service:Service.t ->
  ?behavior:Behavior.t ->
  trail:Trail.group ->
  unit ->
  t
(** The replica acts only through [env] ({!Env}), and names the replicas
    and clients it sends to by their ids alone. Its id is [keychain]'s
    principal. [trail] is the execution-trail digest table the replicas of
    one group share (see {!Trail}). The replica itself acts out only the
    behaviours that need protocol state ([Two_faced], [Corrupt_replies],
    [Stale_view]); the others are the caller's: the crash of [Crash_at]
    and the transport flag of [Forge_auth], and the wire faults that
    {!Behavior.env} wraps [env] with. *)

val receive : t -> Message.received -> unit
(** Handle one inbound datagram: the sink its machine's dispatcher
    delivers to. *)

val id : t -> Types.replica_id

val view : t -> Types.view

val is_primary : t -> bool

val ordering_owner : t -> Types.replica_id
(** The replica that must propose the next uncommitted sequence number: the
    view primary in single-primary mode, the epoch owner of
    [last_committed + 1] under [Config.Rotating]. The health monitor's
    silent-leader detector watches this replica rather than [view mod n]. *)

val last_executed : t -> Types.seqno

val last_committed : t -> Types.seqno

val last_stable : t -> Types.seqno

val metrics : t -> Metrics.t

(* --- health-monitor gauges (cheap reads over live protocol state) --- *)

val queue_depth : t -> int
(** Requests sitting in the primary's batching queue. Bounded by
    [Config.admission_queue_limit] when admission control is enabled. *)

val sheds : t -> int
(** Requests shed by admission control (explicit [Busy] replies sent). *)

val liveness_backoff : base:float -> attempts:int -> float
(** Shared liveness retry schedule: [base * 2^attempts], capped at
    [64 * base]. Drives the view-change timer and the state-transfer
    refetch timer. *)

val backlog : t -> int
(** Requests received from clients but not yet executed. *)

val log_depth : t -> int
(** Live slots in the message log (between the watermarks). *)

val stable_digest : t -> Bft_crypto.Fingerprint.t
(** Digest of the last stable checkpoint. *)

val behavior : t -> Behavior.t

val set_behavior : t -> Behavior.t -> unit
(** Switch the injected behaviour at runtime (chaos plans). Re-arms the
    retransmission machinery when switching back to a correct behaviour;
    the [Forge_auth] transport flag is the caller's ({!Cluster.set_behavior}
    sets and clears it). Raises [Invalid_argument] for [Crash_at] (runtime
    crashes go through {!Bft_net.Network.set_up}). *)

val start_recovery : t -> unit
(** Proactive recovery: refresh session keys and revalidate/refetch state. *)

val restart : t -> unit
(** Reboot from the last stable checkpoint. Everything volatile (the log,
    certificates in progress, queued requests and bodies, view-change and
    state-transfer progress, timers) is rebuilt as {!create} builds it, at
    the checkpoint. What BFT-PR keeps on disk survives: the view, so the
    replica never returns to a view it left; the stable checkpoint (seq,
    digest and snapshot), which restores the client table and the service;
    the stable certificates, which a quorum proved; the last view it sent
    NEW-VIEW for; the keychain; and the execution trail up to the
    checkpoint, since later slots execute again. Ends by running
    {!start_recovery} so the replica re-validates or re-fetches state. The
    caller is responsible for having brought the network node back up. *)

val client_replies : t -> (Types.client_id * int64 * Bft_crypto.Fingerprint.t) list
(** Audit for the chaos checker: for each client, the latest executed
    timestamp and result digest, restricted to entries backed by a commit
    certificate (tentative cache entries are excluded); sorted by client. *)

val executed_digests : t -> (Types.seqno * Bft_crypto.Fingerprint.t) list
(** Audit trail for the safety tests: for every *finally* executed sequence
    number, the digest of the batch executed there (ascending order). *)

val service : t -> Service.t

val dump : t -> string
(** Multi-line human-readable state summary (status, watermarks, head-of-
    line slot and its certificates) for debugging and operational
    inspection. *)
