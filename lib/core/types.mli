(** Shared identifier types for the BFT protocol. *)

type replica_id = int
(** Replicas are numbered [0 .. n-1]; they double as keychain principals.
    Which machine a principal runs on is {!Cluster}'s business. *)

type client_id = int
(** Clients are principals numbered from [n] upwards. *)

type view = int

type seqno = int

val primary_of_view : n:int -> view -> replica_id
(** The primary of view [v] is replica [v mod n]. *)

val quorum : f:int -> int
(** Size of a Byzantine quorum: [2f + 1]. *)

val weak_quorum : f:int -> int
(** Enough matching replies to vouch for a value: [f + 1]. *)
