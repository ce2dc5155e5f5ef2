(** UMAC32-style message authentication codes.

    The paper authenticates messages with 8-byte UMAC32 tags over a nonce
    and the message. We keep the same interface and tag size; the underlying
    PRF is HMAC-MD5 truncated to 8 bytes:
    [Hmac.mac ~key (nonce_le ^ msg)]'s first [tag_size] bytes. The simulated
    CPU cost of a MAC is charged by the cost model, so the paper's "MAC
    computation is negligible" property is preserved regardless of the host
    primitive.

    Host cost: a {!session} holds the MD5 states after the key's inner and
    outer pad blocks, prepared once per key by a C stub over the runtime's
    MD5. A tag then hashes only the nonce, the message and the inner digest
    — two MD5 blocks for a 16-byte message — reading the message in place. *)

type tag = string
(** 8 bytes. *)

val tag_size : int

type session
(** A prepared key. *)

val prepare : string -> session

val compute_with : session -> nonce:int64 -> string -> tag

val verify_with : session -> nonce:int64 -> string -> tag -> bool
(** Constant-time comparison; a tag that is not [tag_size] bytes fails.
    Allocates nothing. *)

val compute : key:string -> nonce:int64 -> string -> tag
(** [compute_with (prepare key)], reusing the session of the last key
    [compute] or [verify] saw (a one-entry pure cache). *)

val verify : key:string -> nonce:int64 -> string -> tag -> bool

val equal : tag -> tag -> bool
(** Constant time over the common length. *)
