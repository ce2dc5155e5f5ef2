(** Compact binary wire format used for every protocol message.

    Encoders append to a growable buffer; decoders read from a string with a
    mutable cursor and raise [Decode_error] on malformed input (truncation,
    bad tags, negative lengths), which callers treat as an authentication
    failure from an untrusted peer. *)

exception Decode_error of string

module Enc : sig
  type t

  val create : ?initial:int -> unit -> t

  val clear : t -> unit
  (** Reset to length 0 without releasing the backing storage. Encoders on
      the hot path are kept as long-lived scratch and cleared per message. *)

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  (** 32-bit unsigned, little endian; requires [0 <= v < 2^32]. *)

  val u64 : t -> int64 -> unit
  val int : t -> int -> unit
  (** Non-negative int as u64. *)

  val f64 : t -> float -> unit
  val bytes : t -> string -> unit
  (** Length-prefixed byte string. *)

  val bytes_sub : t -> string -> off:int -> len:int -> unit
  (** [bytes t (String.sub s off len)] without the copy.
      @raise Invalid_argument if the slice is out of range. *)

  val raw : t -> string -> unit
  (** Raw bytes, no length prefix. *)

  val bool : t -> bool -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val to_string : t -> string

  val contents : t -> string
  (** The encoded bytes, leaving the encoder empty. When the bytes fill the
      encoder's storage exactly — [create ~initial:n] followed by [n]
      bytes — the storage becomes the string without a copy; otherwise
      this is [to_string] then [clear]. For one-shot encoders sized to
      their output. *)

  val length : t -> int

  val unsafe_bytes : t -> Bytes.t
  (** The backing storage; only the first [length t] bytes are meaningful.
      Invalidated by any subsequent append (the buffer may be reallocated)
      — read before appending more. *)
end

module Dec : sig
  type t

  val of_string : string -> t

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val int : t -> int
  val f64 : t -> float
  val bytes : t -> string

  val bytes_span : t -> int * int
  (** Like [bytes], but returns the offset and length of the bytes in the
      decoder's source string instead of a copy of them. *)

  val raw : t -> int -> string
  val bool : t -> bool
  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val position : t -> int
  (** Current cursor offset. *)

  val at_end : t -> bool
  val expect_end : t -> unit
  (** Raises [Decode_error] if bytes remain. *)
end

val roundtrip_check : (Enc.t -> 'a -> unit) -> (Dec.t -> 'a) -> 'a -> bool
(** [roundtrip_check enc dec v] encodes, decodes and compares with [=];
    used by the property-test suites. *)
