(** The safety audit over the replicas' audit trails
    ({!Replica.executed_digests}, {!Replica.client_replies}): the one place
    that decides whether correct replicas executed the same requests in the
    same order. Findings come in discovery order (replicas in the order
    given, each trail in its own order); wording and caps are the caller's. *)

type 'k conflict =
  'k * (Types.replica_id * Bft_crypto.Fingerprint.t)
  * (Types.replica_id * Bft_crypto.Fingerprint.t)
(** [(key, (first, d0), (other, d))]: [other] recorded [d] for [key], where
    [first], the first replica to record one, recorded [d0]. *)

val agreement : Replica.t list -> Types.seqno conflict list
(** Differing batch digests at a finally-executed sequence number. *)

val replies : Replica.t list -> (Types.client_id * int64) conflict list
(** Differing result digests for a committed (client, timestamp) reply. *)

val unique_execution : Replica.t list -> (Types.replica_id * Types.seqno) list
(** The first sequence number each replica executed twice, if any. *)

val caught_up : Replica.t list -> Types.replica_id list
(** The replicas at the highest {!Replica.last_executed}. One that caught
    up by state transfer counts: its trail lacks the batches the adopted
    checkpoint covered, but its execution point does not. *)
