(** Binary min-heap specialised for the discrete-event queue.

    Elements are ordered by a client-supplied priority and, for equal
    priorities, by insertion order, so iteration over equal-priority
    elements is FIFO (this is what makes the simulator deterministic). *)

type 'a t

type 'a entry
(** A queued element's handle: it records its own position, so {!remove}
    needs no search. *)

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push h ~priority x] inserts [x] with the given priority. *)
val push : 'a t -> priority:float -> 'a -> unit

(** [add h ~priority x] is [push], returning the entry's handle. *)
val add : 'a t -> priority:float -> 'a -> 'a entry

(** [remove h e] takes [e] out of [h] in O(log n); a no-op once [e] has
    been popped or removed. The order of the other elements is unchanged. *)
val remove : 'a t -> 'a entry -> unit

(** [mem e] is whether [e] is still queued. *)
val mem : 'a entry -> bool

(** [pop h] removes and returns the minimum-priority element, FIFO among
    equal priorities. Raises [Not_found] on an empty heap. *)
val pop : 'a t -> 'a

(** [min_priority h] is the priority of the minimum element. Raises
    [Not_found] on an empty heap. *)
val min_priority : 'a t -> float
