(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every stochastic component of the simulation owns its own [Rng.t],
    derived from the experiment seed, so adding randomness to one component
    never perturbs another. *)

type t

(** [create seed] builds a generator from a 64-bit seed. *)
val create : int64 -> t

(** [of_int seed] is [create] on an [int] seed. *)
val of_int : int -> t

(** [split t label] derives an independent generator; the same [label]
    always yields the same stream. Advances [t]: successive splits with
    the same label differ. *)
val split : t -> string -> t

(** [fork t label] derives an independent generator {e without} advancing
    [t], so the derivation cannot perturb sibling streams — the pure
    counterpart of [split]. Successive forks of an untouched parent with
    the same label return identical streams; use distinct labels. *)
val fork : t -> string -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [bernoulli t p] is true with probability [p]. *)
val bernoulli : t -> float -> bool

(** [exponential t ~mean] samples an exponential distribution. *)
val exponential : t -> mean:float -> float

(** [pick t arr] selects a uniform element of a non-empty array. *)
val pick : t -> 'a array -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
