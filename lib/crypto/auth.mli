(** Authenticators: vectors of MACs, one entry per receiving replica.

    [<m>_alpha_i] in the paper is message [m] carrying a vector of MACs with
    an entry for each replica other than [i]; each receiver checks only its
    own entry. This is what lets BFT avoid public-key signatures on the
    critical path. *)

type t = { nonce : int64; entries : (Keychain.principal * Mac.tag) list }

val generate :
  Keychain.t -> nonce:int64 -> targets:Keychain.principal list -> string -> t
(** MAC the message once per target under the per-pair send key. *)

type origin
(** What the sender computed for one authenticator: the message it covers,
    its nonce and targets, the true tag of each target, and the session
    each tag was computed under. *)

val seal :
  Bft_util.Codec.Enc.t ->
  Keychain.t ->
  nonce:int64 ->
  targets:Keychain.principal list ->
  corrupt:bool ->
  string ->
  origin
(** [seal enc keychain ~nonce ~targets ~corrupt msg] appends to [enc] the
    bytes [encode] writes for [generate keychain ~nonce ~targets msg] (for
    its {!corrupt} if [corrupt]), and returns what a receiver needs to
    skip its own MAC: the tags as computed, before [corrupt] flips them. *)

val covered : origin -> string
(** The message its tags cover. *)

val check :
  ?origin:origin -> Keychain.t -> from:Keychain.principal -> string -> t -> bool
(** Verify this principal's own entry (missing entry or a sender outside
    the deployment => reject). Given the [origin] of the transmit the
    authenticator arrived in, the check compares the entry with the
    sender's true tag instead of computing a MAC, but only when the
    receiver's inbound session is physically the one that tag was computed
    under and the nonce and message are the ones the sender used; the
    verdict is the MAC's either way. The MAC verification is counted in
    {!Tally} either way. *)

val single : Keychain.t -> nonce:int64 -> to_:Keychain.principal -> string -> t
(** One-entry authenticator for point-to-point messages. *)

val wire_size : t -> int
(** Bytes this authenticator occupies on the wire. *)

val wire_size_for : entries:int -> int
(** Bytes an authenticator with [entries] tags occupies on the wire. *)

val encode : Bft_util.Codec.Enc.t -> t -> unit

val decode : Bft_util.Codec.Dec.t -> t

val corrupt : t -> t
(** Flip a bit in every tag — used by fault injection to model a forger. *)
