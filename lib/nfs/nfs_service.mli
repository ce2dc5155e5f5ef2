(** The NFS state machine as a {!Bft_core.Service.t} — this is what BFS
    replicates with the BFT library, and what the NO-REP server runs
    without replication.

    Determinism: the same call sequence produces the same results, state
    digests and snapshots at every replica. Mutating calls return undo
    closures so the library can roll back tentative executions.

    The cost model charges per-call CPU plus, when the data set outgrows
    [mem_bytes] (the testbed machines had 512 MB), cache-miss disk time on
    reads and writes — the effect that separates Andrew500 from Andrew100
    in the paper. Disk time is charged to the executing CPU; for the
    single-client file-system benchmarks this is equivalent to blocking on
    the disk. *)

type params = {
  mem_bytes : int;  (** server cache before misses start (512 MB) *)
  op_cpu : float;  (** base CPU seconds per NFS call *)
  byte_cpu : float;  (** CPU seconds per payload byte *)
  disk : Bft_sim.Calibration.t;  (** seek/bandwidth for the miss model *)
}

val default_params : params

val create : ?params:params -> Fs.t -> Bft_core.Service.t
(** The service over [fs], which the caller creates and keeps (as
    {!Bft_services.Kv_store.service_of_store} does for a store): executing,
    undoing and restoring mutate [fs] in place, and the caller reads the
    served state straight from it. The service holds no other state than
    its dirty counter, and nothing outside the returned value refers to
    [fs]. *)

val execute_call : Fs.t -> Proto.call -> Proto.reply * Bft_core.Service.undo
(** Shared with the NFS-STD model, which runs the same state machine
    outside the replication library. *)

val miss_cost : params -> Fs.t -> int -> float
(** Expected cache-miss disk seconds for an access of the given length. *)
