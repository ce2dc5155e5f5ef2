(** Pairwise symmetric session keys between principals.

    In BFT each pair of principals shares session keys established with
    public-key cryptography and refreshed periodically (the only use of
    public-key operations in the system). Here the key-exchange transcript
    is deterministic — keys are derived from a cluster master secret, the
    principal pair and an epoch — but the data flow is the same: a principal
    only accepts messages MACed under the key of its current epoch for the
    sender, and proactive recovery bumps the epoch (invalidating tags an
    attacker may have collected). *)

type principal = int

type t

val create : master:string -> self:principal -> ?replica_bound:int -> unit -> t
(** [replica_bound]: principals below it are replicas; epoch refreshes only
    apply to them. Client-replica keys are refreshed by the clients on
    their own schedule (as in the paper), so a replica's proactive recovery
    never locks its clients out. Defaults to treating every peer as a
    replica. *)

val self : t -> principal

(** Each direction of each pairwise channel is a session: the key of the
    current epoch and its prepared MAC state, derived once per (peer,
    epoch) and found again with one int-keyed probe that allocates
    nothing. *)

val send_session : t -> principal -> Mac.session
(** Prepared key for messages this principal sends to [peer]. *)

val recv_session : t -> principal -> Mac.session
(** Prepared key under which messages from [peer] must be authenticated. *)

(** Key this principal uses to authenticate messages it sends to [peer]. *)
val send_key : t -> principal -> string

(** Key under which messages from [peer] must be authenticated. *)
val recv_key : t -> principal -> string

val epoch : t -> peer:principal -> int
(** Epoch of the inbound key currently accepted from [peer]. *)

val refresh : t -> unit
(** Bump this principal's inbound epoch for replica peers: the new epoch's
    keys become the only accepted inbound keys from replicas. Models the
    new-key message of proactive recovery. *)

val observe_epoch : t -> peer:principal -> int -> unit
(** Record that [peer] refreshed to [epoch], so future sends to it use the
    new key. Stale epochs are ignored. *)
