(** PostMark (Katcher, TR-3022): models the small-file workload of Internet
    Service Providers — mail, news, web commerce. An initial pool of files
    with sizes between 512 B and 16 KB; each transaction pairs a
    create-or-delete with a read-or-append. The paper configures exactly
    this pool and reports transactions per second. *)

type profile = {
  initial_files : int;
  transactions : int;
  min_size : int;  (** 512 *)
  max_size : int;  (** 16384 *)
  write_buffer : int;
  compute_per_txn : float;  (** PostMark does little client computation *)
}

val scaled : files:int -> transactions:int -> profile

val generate : profile -> Nfs_rig.step list * int
(** The step stream and the number of transactions it contains. *)
