(** The modified Andrew benchmark of Section 5: a software-development
    workload, scaled up by creating [n] copies of the source tree in the
    first two phases and operating on all copies in the remaining phases.
    [n] = 100 generates ~200 MB of data (fits in the 512 MB machines),
    [n] = 500 generates ~1 GB (does not) — the client's cache stops
    absorbing the read phase and the servers start missing, which is what
    separates Andrew500 from Andrew100 in the paper.

    The generator predicts file handles by replaying the operations on a
    local {!Bft_nfs.Fs.t}, so the emitted call stream is concrete and, being
    deterministic, identical at every replica. *)

type profile = {
  copies : int;  (** n *)
  dirs_per_copy : int;
  files_per_copy : int;
  write_buffer : int;  (** kernel NFS client used 3 KB buffers *)
  client_mem : int;  (** client cache: reads of a resident data set mostly
                         hit the cache and never reach the server *)
  compute_scale : float;  (** scales all client compute *)
}

val andrew : n:int -> profile
(** Standard profile for Andrew-n (2 MB of source per copy). *)

val generate : profile -> Nfs_rig.step list

val phase_names : string list
