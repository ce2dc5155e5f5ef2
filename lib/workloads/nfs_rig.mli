(** The three file-system deployments compared in Section 5, behind one
    client-side interface:

    - BFS: the NFS state machine replicated with the BFT library (f=1);
    - NO-REP: the same state machine on one server over plain UDP;
    - NFS-STD: the kernel NFS V2 + Ext2fs model.

    All three run the benchmark program on one client machine: NFS calls
    are sequential, with client compute charged between calls, exactly like
    the paper's single-client Andrew and PostMark runs. *)

type backend = Bfs | Norep_fs | Nfs_std_fs

val backend_name : backend -> string

type t

val make :
  backend ->
  ?params:Bft_nfs.Nfs_service.params ->
  ?monitor:Bft_trace.Monitor.t ->
  unit ->
  t
(** With [monitor], the rig feeds the health monitor: for BFS, replica
    gauges and client latencies via {!Bft_core.Cluster.attach_monitor};
    for the unreplicated backends, call latencies only (there is no
    replica group to scrape). Observation is pure — benchmark numbers are
    identical with and without it. *)

val engine : t -> Bft_sim.Engine.t

val profile : t -> Bft_trace.Profile.t
(** Per-machine, per-category CPU cost breakdown at this instant, for any
    backend ({!Bft_net.Network.profile}). *)

(** One benchmark step: local client computation, an NFS call, or a phase
    boundary marker (for per-phase reporting, as Andrew does). *)
type step = Compute of float | Call of Bft_nfs.Proto.call | Phase of string

val run :
  t ->
  ?on_phase:(name:string -> elapsed:float -> unit) ->
  on_done:(elapsed:float -> calls:int -> unit) ->
  step list ->
  unit
(** Execute the steps sequentially on the client machine; [on_phase] fires
    at each phase boundary with the time spent since the previous one, and
    [on_done] fires at the end with the total elapsed virtual time and the
    number of NFS calls issued. The caller must then run the engine. *)

val server_fs : t -> Bft_nfs.Fs.t
(** The authoritative file system: the one the rig created for the server
    (for BFS, the first replica's). *)
