(** NFS-STD: the kernel NFS V2 server with Ext2fs at the server, as in the
    paper's comparison.

    Differences from the NO-REP user-space server, mirroring the paper's
    observations:
    - slightly cheaper per-call CPU (in-kernel path, no user-space copy);
    - it does {e not} ensure stability of modified data before replying —
      the Linux behaviour the paper calls out as incorrect — so WRITE
      replies immediately;
    - Ext2fs metadata updates (CREATE/REMOVE/RENAME/MKDIR/...) are
      synchronous: the reply waits for the disk, which is why NFS-STD pays
      many more disk accesses in PostMark;
    - the same 512 MB cache-miss model applies to bulk data.

    The disk is a separate resource from the CPU: while a reply waits for
    a synchronous metadata write, the CPU keeps serving other calls. *)

type t

val create :
  network:Bft_net.Network.t ->
  node:Bft_net.Network.node_id ->
  ?params:Nfs_service.params ->
  unit ->
  t
(** Per-call CPU is 0.85 of the user-space server's. *)

val fs : t -> Fs.t

val metrics : t -> Bft_core.Metrics.t

val disk_busy : t -> float
(** Total seconds the disk spent on synchronous operations. *)
