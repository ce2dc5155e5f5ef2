(** Per-peer state by direct index.

    Per-peer state on the message path (MAC channels at their pair's slot,
    announced epochs, anti-replay windows) lives in arrays indexed by a
    dense peer or pair index and grown on demand, so a lookup is a bounds
    check and a load and the storage follows the highest index actually
    used. Ids that are not dense go in {!Int_tbl}, whose hash is the key
    itself: no C call and no polymorphic comparison. *)

val grow : 'a array -> int -> 'a -> 'a array
(** [grow a i fill] is [a] if [i] indexes it, else a copy of [a] long
    enough to hold [i] (at least twice as long), new cells [fill]. *)

val grow_bytes : Bytes.t -> int -> Bytes.t
(** [grow_bytes b len] is [b] if it holds [len] bytes, else a copy long
    enough (at least twice as long), new bytes zero. *)

module Int_tbl : Hashtbl.S with type key = int
