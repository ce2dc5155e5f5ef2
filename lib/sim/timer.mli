(** Cancellable one-shot timers on top of the engine.

    Protocol code uses these for client retransmission and view-change
    timeouts; cancelling an already-fired or already-cancelled timer is a
    no-op, which keeps the call sites simple. A cancelled timer leaves
    the engine's queue at once. *)

type t

val start : Engine.t -> delay:float -> (unit -> unit) -> t

val cancel : t -> unit

val active : t -> bool

val never : t
(** A timer that is already inactive, for initialising record fields. *)

val restart : Engine.t -> t -> delay:float -> (unit -> unit) -> t
(** Cancel [t] and start a fresh timer. *)
