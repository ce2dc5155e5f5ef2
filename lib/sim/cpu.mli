(** Serial CPU model for one simulated machine.

    Handlers dispatched to a CPU run one at a time; a handler accumulates
    cost through [charge] and the CPU stays busy until the accumulated work
    completes. Messages sent from inside a handler are stamped with
    [virtual_now], i.e. they leave after the computation that produced them.
    This reproduces the paper's saturation behaviour, where the replicas'
    CPUs are the bottleneck for small-argument operations.

    Every charge is attributed to a {!category} (the paper's Section 4.2
    cost centers), so a profiler can break total busy time down into MAC
    generation, MAC verification, digesting, encode/decode byte touching,
    service execution, and everything else. [total_busy] is defined as the
    fold over the per-category array, so the category totals sum to it
    exactly — same floats, same addition order. *)

type category =
  | Mac_gen (** computing MACs / authenticators on outbound messages *)
  | Mac_verify (** checking MACs on inbound messages *)
  | Digest (** MD5 digests of requests, batches, and state *)
  | Encode (** serialisation and other outbound byte touching *)
  | Decode (** deserialisation and other inbound byte touching *)
  | Exec (** service upcalls (the replicated state machine itself) *)
  | Other (** fixed per-message protocol overhead and the rest *)

val num_categories : int

val category_index : category -> int
(** Dense index in [0, num_categories): position in [busy_seconds] arrays. *)

val category_labels : string array
(** Labels by [category_index], e.g. for report column headers. *)

type t

val create : Engine.t -> ?speed:float -> unit -> t
(** [speed] is a relative multiplier (1.0 = the paper's 600 MHz PIII; the
    700 MHz client machines of Section 4.3 use 700/600). *)

val dispatch : t -> (unit -> unit) -> unit
(** Queue a handler; it runs when the CPU is free. *)

val charge : ?cat:category -> t -> float -> unit
(** Add [seconds] of work (at speed 1.0) to the running handler, attributed
    to [cat] (default [Other]). Calling it outside a handler makes the CPU
    busy for that long starting now. *)

val charge_bytes :
  ?cat:category -> t -> base:float -> per_byte:float -> int -> unit
(** [charge_bytes ?cat t ~base ~per_byte n] is
    [charge ?cat t (base +. (float_of_int n *. per_byte))], the shape of
    every per-byte cost in {!Calibration}, without boxing the sum: a
    charge of a computed cost allocates nothing. *)

val virtual_now : t -> float
(** Inside a handler: start time plus work accumulated so far. Outside:
    [max (Engine.now) busy_until]. *)

val busy_until : t -> float

val total_busy : t -> float
(** Total busy seconds accumulated, for utilisation reports. Exactly the
    sum of [busy_seconds]. *)

val busy_seconds : t -> float array
(** Fresh copy of per-category busy seconds, indexed by [category_index]. *)
