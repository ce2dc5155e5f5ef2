(** Message digests (D(.) in the paper): 16-byte MD5 fingerprints with a
    domain-separated multi-part form used to digest structured messages. *)

type t = string
(** 16 bytes. *)

val size : int

val of_string : string -> t

val of_substring : string -> off:int -> len:int -> t
(** Digest of a slice, without copying it out.
    @raise Invalid_argument if the slice is out of range. *)

val of_bytes : Bytes.t -> off:int -> len:int -> t
(** Digest of a byte-array slice (e.g. an encoder's scratch buffer).
    @raise Invalid_argument if the slice is out of range. *)

val of_parts : string list -> t
(** Digest of length-prefixed parts, so part boundaries are unambiguous. *)

(** Incremental form of [of_parts]: the same length-prefix framing, fed
    part by part and staged in a buffer that grows on demand. Builders are
    reusable scratch — [reset_builder], add parts, [finish]. *)
type builder

val create_builder : unit -> builder

val reset_builder : builder -> unit

val add_part : builder -> string -> unit

val add_part_bytes : builder -> Bytes.t -> off:int -> len:int -> unit
(** @raise Invalid_argument if the slice is out of range. *)

val finish : builder -> t

val equal : t -> t -> bool

val zero : t

val pp : Format.formatter -> t -> unit
(** First 8 hex characters, for logs. *)
