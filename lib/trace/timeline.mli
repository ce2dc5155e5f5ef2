(** Per-request phase timelines: a view over the {!Span} DAG of a
    protocol trace.

    Each completed request is decomposed into four phases whose
    boundaries are trace events, chosen so the phases telescope exactly
    to the client-observed end-to-end latency:

    - {b client→primary}: client transmits the request
      ([Client_send]) → the primary receives it ([Request_recv]).
    - {b ordering}: primary receipt → the first replica executes the
      request ([Exec_request]) — the pre-prepare/prepare (and, without
      tentative execution, commit) rounds.
    - {b execution}: first execution → the first reply leaves a replica
      ([Reply_sent]) — service upcall plus reply construction.
    - {b reply}: first reply sent → the client accepts a reply quorum
      ([Client_deliver]) — the wire back plus quorum wait.

    Requests missing any boundary event (incomplete at the end of the
    run, or evicted from the trace ring) are skipped and counted in
    [incomplete]. *)

type t = {
  requests : int;  (** complete request timelines folded *)
  incomplete : int;  (** request ids seen but missing a boundary event *)
  client_to_primary : Bft_util.Stats.t;
  ordering : Bft_util.Stats.t;
  execution : Bft_util.Stats.t;
  reply : Bft_util.Stats.t;
  end_to_end : Bft_util.Stats.t;  (** per-request sum of the four phases *)
}

val of_dag : ?skip:int -> Span.t -> t
(** Read the timelines off a span DAG. [skip] (default 0) drops the
    earliest-started [skip] complete requests — e.g. a benchmark's warmup
    window; requests started at the same instant count in order of first
    appearance in the trace. *)

val of_events : ?skip:int -> Trace.event list -> t
(** [of_dag (Span.of_events events)]. *)

val of_trace : ?skip:int -> Trace.t -> t

val phases : t -> (string * Bft_util.Stats.t) list
(** The four phases plus ["end-to-end"], in timeline order. *)

val monotone : t -> bool
(** All folded phase durations are non-negative, i.e. every per-request
    timeline is monotone in virtual time. *)
