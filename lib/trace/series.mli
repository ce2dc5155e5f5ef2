(** Bounded time-series ring of metric snapshots on a virtual-time cadence.

    Columns are fixed at creation; each sample is one (virtual time, value
    row). The sampling timer lives with the caller — this module stores and
    renders only, with fixed float formatting so equal series export
    byte-identically. *)

type t

val create : ?capacity:int -> names:string array -> unit -> t
(** Keep the newest [capacity] samples (default 4096). *)

val record : t -> vtime:float -> float array -> unit
(** Append one sample; [values] must match the column count. The array is
    copied. *)

val total : t -> int
(** Samples ever recorded (including those evicted by the ring). *)

val length : t -> int

val dropped : t -> int

val samples : t -> (float * float array) list

val jsonl : t -> string
(** One JSON object per sample: [{"t":..., "<name>":value, ...}]. *)
