(** Authenticators: vectors of MACs, one entry per receiving replica.

    [<m>_alpha_i] in the paper is message [m] carrying a vector of MACs with
    an entry for each replica other than [i]; each receiver checks only its
    own entry. This is what lets BFT avoid public-key signatures on the
    critical path. *)

type t = { nonce : int64; entries : (Keychain.principal * Mac.tag) list }

val generate :
  Keychain.t -> nonce:int64 -> targets:Keychain.principal list -> string -> t
(** MAC the message once per target under the per-pair send key. *)

val check : Keychain.t -> from:Keychain.principal -> string -> t -> bool
(** Verify this principal's own entry (missing entry or a sender outside
    the deployment => reject). *)

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
