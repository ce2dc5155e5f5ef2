(** The execution trail: for every batch a replica finally executed, its
    sequence number and batch digest, oldest first ({!Replica.executed_digests}).

    The replicas of one group execute the same batches, so the digests are
    kept once per group: a {!group} holds one digest per sequence number,
    written by the first replica to finalize it. A replica's trail is then
    its runs of consecutive sequence numbers whose digests are the
    group's, plus its own digest wherever it finalized a different one. It
    costs 16 bytes per batch per group, and two ints per run per replica;
    it is smaller, not bounded. *)

type group
(** The digests of one replica group, by sequence number. *)

val group : unit -> group

type t
(** One replica's trail. *)

val create : group -> t

val append : t -> Types.seqno -> Bft_crypto.Fingerprint.t -> unit
(** Record that [seq] finally executed with this digest, after every record
    so far. Repeated and out-of-order seqs are kept as they come. *)

val trim : t -> Types.seqno -> unit
(** Keep only the records at or below [seq], in their order. *)

val to_list : t -> (Types.seqno * Bft_crypto.Fingerprint.t) list
(** Every record, oldest first, duplicates and gaps as appended. *)
