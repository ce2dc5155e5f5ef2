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

type deployment
(** The principals of one cluster: replicas [0 .. replicas-1] and the
    clients admitted so far at [client_base + i]. Every keychain of the
    cluster shares one, so a client admitted later is known to all.

    It also holds the channels: one per direction of each pair, per master
    secret, which both ends of the pair read. Keychains built from
    different masters never share a channel. *)

val deployment : replicas:int -> client_base:int -> deployment
(** No clients yet. Raises [Invalid_argument] unless
    [1 <= replicas <= client_base]. *)

val admit_client : deployment -> principal
(** The next client principal, [client_base + clients admitted so far],
    now part of the deployment. *)

type t

val create : master:string -> self:principal -> deployment -> t
(** Epoch refreshes apply to the deployment's replicas only. Client-replica
    keys are refreshed by the clients on their own schedule (as in the
    paper), so a replica's proactive recovery never locks its clients
    out. *)

val self : t -> principal

val peer_index : t -> principal -> int
(** The peer's dense index: a replica's id, [replicas + i] for the [i]-th
    admitted client, [-1] for a principal outside the deployment. Per-peer
    state is stored at this index, so it grows with the peers actually
    used, not with the largest principal id. *)

(** Each direction of each pairwise channel is stored once, at a slot of
    the deployment both of its ends read: the epoch it was derived for and
    the 32-byte prepared MAC state of its key ({!Mac.session}). A lookup
    under the slot's epoch is an array load and allocates nothing; an end
    asking under another epoch derives the channel again and replaces the
    slot. Clients never talk to clients, so every stored pair has a replica
    end; a pair without a slot (two clients, or a keychain whose own
    principal is outside the deployment) derives its session on every call
    and keeps nothing. The
    lookups below raise [Invalid_argument] for a principal outside the
    deployment. *)

val send_session : t -> principal -> Mac.session
(** Prepared key for messages this principal sends to [peer]. *)

val recv_session : t -> principal -> Mac.session
(** Prepared key under which messages from [peer] must be authenticated. *)

val send_key : t -> principal -> string
(** Key this principal uses to authenticate messages it sends to [peer],
    derived on each call (channels keep only the prepared state). *)

val recv_key : t -> principal -> string
(** Key under which messages from [peer] must be authenticated, derived on
    each call. *)

val epoch : t -> peer:principal -> int
(** Epoch of the inbound key currently accepted from [peer]. *)

val refresh : t -> unit
(** Bump this principal's inbound epoch for replica peers: the new epoch's
    keys become the only accepted inbound keys from replicas. Models the
    new-key message of proactive recovery. *)

val observe_epoch : t -> peer:principal -> int -> unit
(** Record that [peer] refreshed to [epoch], so future sends to it use the
    new key. Stale epochs and principals outside the deployment are
    ignored. *)
