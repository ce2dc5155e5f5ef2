(** Lightweight named counters and samples for protocol instrumentation. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit

val count : t -> string -> int

val sample : t -> string -> float -> unit

val samples : t -> string -> Bft_util.Stats.t option

val counters : t -> (string * int) list
(** Sorted by name ([String.compare] on the name only, so entries with
    equal names and values order stably). *)

val stats_pairs : t -> (string * Bft_util.Stats.t) list
(** Every sampled histogram, sorted by name. *)

val dump : t -> string
(** Operator snapshot: one line per counter and one summary line
    (count/mean/p50/p99/max) per histogram, sorted by name. *)
