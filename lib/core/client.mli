(** BFT client process.

    A client invokes operations one at a time (closed loop, as in the
    paper's benchmarks): it sends an authenticated REQUEST to the primary —
    or multicasts it, for read-only operations, large operations under
    separate request transmission, and retransmissions — then waits for
    matching replies: [f + 1] for committed replies, [2f + 1] when replies
    are tentative or the operation is read-only. With digest replies the
    request designates one replica to send the full result; the others send
    digests, and the client checks the full result against them.

    Retransmissions ask every replica for a full reply; a read-only
    operation that times out (e.g. because of concurrent writes) is
    retransmitted as a regular read-write operation, as in the paper. *)

type t

type outcome = {
  result : Payload.t;
  latency : float;
  retries : int;
  view : Types.view;  (** view reported by the matching replies *)
  rejected : bool;
      (** the operation was explicitly rejected by admission control: the
          primary shed it with authenticated BUSY replies until the client's
          [Config.shed_retry_budget] ran out. [result] is empty and the
          latency probe is not called — the rejection is an explicit terminal
          outcome, not a completion. Advisory: a delayed duplicate of the
          request may still commit at the replicas after the client gave
          up; the per-client timestamp makes that harmless. *)
}

val create :
  config:Config.t ->
  transport:Transport.t ->
  replicas:Transport.peer array ->
  rng:Bft_util.Rng.t ->
  dispatcher:Dispatcher.t ->
  unit ->
  t

val id : t -> Types.client_id

val invoke : t -> ?read_only:bool -> Payload.t -> (outcome -> unit) -> unit
(** Start an operation; the callback fires exactly once, on completion.
    Raises [Invalid_argument] if an operation is already outstanding. *)

val busy : t -> bool

val retry_backoff :
  base:float -> cap:float -> rng:Bft_util.Rng.t -> attempt:int -> float
(** The client's jittered exponential backoff schedule:
    [base * min(cap, 2^attempt) * (1 + 0.25 * u)] with [u] drawn uniformly
    from the given RNG — deterministic for a given RNG state. Cap 16 is
    used for loss retransmissions, cap 64 for shed (BUSY) retries. *)

val metrics : t -> Metrics.t

val set_latency_probe : t -> (float -> unit) -> unit
(** Install a hook called with each completed operation's latency, in
    completion order — how an attached health monitor feeds its streaming
    SLO sketches ({!Bft_core.Cluster.attach_monitor}). Defaults to
    [ignore]; one probe at a time. *)
