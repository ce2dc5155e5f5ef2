(** Shard-aware client: one logical KV client over a sharded deployment.

    A proxy owns one BFT client process in every built group of a {!Rig}
    (including spare groups not yet routed to) and routes each single-key
    operation to the group that owns the key ({!Router.group_of_key}), so
    callers keep the familiar closed-loop client shape — invoke, wait for
    the callback, invoke again — without knowing the deployment is sharded.
    Per-group completion tallies are kept so benchmarks can report
    how evenly the keyspace load spread.

    Routing re-reads the rig's live router on every dispatch, and mutating
    operations fence on the rig's slot gates: an operation aimed at a slot
    that is mid-migration parks until the flip completes and then re-routes
    to the new owner. Reads bypass the fence.

    Like the underlying {!Bft_core.Client}, a proxy drives one operation
    at a time; create one proxy per simulated end user. *)

type t

type outcome = {
  group : int;  (** group that owned the key *)
  result : Bft_services.Kv_store.result;
  raw : Bft_core.Client.outcome;  (** latency / retries / view *)
}

val create : ?retry_budget:int -> Rig.t -> t
(** Adds one client process to every built group of the rig (placed on that
    group's client machines round-robin, as {!Bft_core.Cluster.add_client}
    does). [retry_budget] (default 2) bounds how many times the proxy
    re-invokes an operation that the owning group's admission control
    explicitly rejected, each re-invoke after a jittered exponential
    backoff. Each proxy draws jitter from its own RNG stream, labelled by
    a per-rig ordinal, so proxies never back off in lockstep. *)

val invoke : t -> Bft_services.Kv_store.op -> (outcome -> unit) -> unit
(** Route the operation to the owning group and start it; the callback
    fires exactly once, on completion. Get operations use the read-only
    optimization. An operation still rejected after the proxy's retry
    budget completes with [result = Error "busy"] (and [raw.rejected]
    set) — graceful degradation, never silent loss. Raises
    [Invalid_argument] if an operation is already outstanding on this
    proxy, or for transaction/migration operations (those go through
    {!Txn} and {!Reshard}). *)

val group_of_op : t -> Bft_services.Kv_store.op -> int
(** Where {!invoke} would send this operation (under the current router). *)

val ordinal : t -> int
(** The per-rig ordinal labelling this proxy's backoff RNG stream. *)

val next_backoff : t -> attempt:int -> float
(** Draw the next jittered backoff from the proxy's live RNG stream (test
    hook: consumes from the same stream {!invoke} uses). *)

val completed : t -> int array

val total_completed : t -> int

val retransmissions : t -> int
(** Total client-side retransmissions, summed over the per-group clients. *)

val shed_retries : t -> int array
(** Per-group count of proxy-level re-invokes spent on rejections. *)

val total_sheds : t -> int
(** Operations that exhausted the proxy's retry budget and completed as
    [Error "busy"] — comparable to the clients' own [ops.rejected]
    tallies. *)

val total_shed_attempts : t -> int
