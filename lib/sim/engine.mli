(** Discrete-event simulation engine.

    The engine owns a virtual clock (seconds) and a priority queue of
    events; events at equal times fire in schedule order, which makes every
    run deterministic. All protocol code in this repository executes inside
    engine events — there are no threads.

    The queue is two heaps that number their insertions from one counter:
    one for {!schedule} and {!schedule_at}, one for the cancellable events
    of {!schedule_event}. The engine fires whichever head is first by
    (time, insertion number), which is the order one heap would give, so
    the split is invisible to every caller. It keeps the heap of in-flight
    deliveries and CPU work small while many timers wait. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Fire a closure [delay] seconds from now (clamped to now if negative). *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Fire a closure at an absolute virtual time (clamped to now if past). *)

type event
(** A queued event that can still be withdrawn. *)

val schedule_event : t -> delay:float -> (unit -> unit) -> event
(** [schedule] that returns a handle for {!cancel}. *)

val cancel : event -> unit
(** Take the event out of the queue in O(log n), leaving no tombstone; a
    no-op once it has fired or been cancelled. Other events keep their
    order. *)

val is_scheduled : event -> bool
(** Whether the event is still queued: false from the moment it starts
    firing. *)

val no_event : event
(** An event that is never scheduled. *)

val pending : t -> int
(** Number of queued events, in both heaps. Cancelled events are not
    counted. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Process events in time order until the queue drains, the clock would
    pass [until], or [max_events] have fired. On [until], the clock is left
    at [until]. *)

val step : t -> bool
(** Fire exactly the next event; [false] when the queue is empty. *)

val stop : t -> unit
(** Make the current [run] return after the in-flight event completes. *)

val set_trace : t -> Bft_trace.Trace.t -> unit
(** Install a trace sink. When the sink is live and created with
    [~sim_events:true], every dispatched event emits a [Sim_fire] trace
    event at its fire time. Defaults to {!Bft_trace.Trace.nil}. *)
