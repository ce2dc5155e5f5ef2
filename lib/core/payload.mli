(** Operation arguments, results and state snapshots.

    A payload carries real bytes in [data] plus a modeled [pad] of
    conceptual zero bytes. The micro-benchmarks of the paper use zero-filled
    arguments and results of up to several kilobytes; representing those
    zeros literally would make the simulator spend its time hashing zeros,
    so they are carried as a count. All costs (bandwidth, copies, digests)
    are charged on [size = length data + pad], and the digest commits to
    both the bytes and the pad, so a padded payload behaves exactly like the
    equivalent zero-filled one. *)

type t = { data : string; pad : int }

val of_string : string -> t

val zeros : int -> t
(** A modeled zero-filled payload of the given size. *)

val empty : t

val size : t -> int

val digest : t -> Bft_crypto.Fingerprint.t

val equal : t -> t -> bool

val encode : Bft_util.Codec.Enc.t -> t -> unit

val decode : Bft_util.Codec.Dec.t -> t
