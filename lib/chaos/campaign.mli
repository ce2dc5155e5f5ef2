(** One chaos campaign: drive a deterministic [f = 1] cluster with a
    steady client workload, execute a {!Plan.t} against it via engine
    timers, force-heal every fault at the horizon, and check the two
    protocol invariants when the dust settles:

    - {b safety}: all correct replicas agree on the batch committed at
      every sequence number, and on the committed reply (result digest)
      for every (client, timestamp) pair. Replicas that were ever switched
      to a Byzantine behaviour are outside the fault assumption's
      "correct" set and excluded from the audit; crash/restart replicas
      are included (their amnesia is covered by the [f] budget).
    - {b liveness / no silent loss}: once every fault is healed and at
      most [f] replicas were ever faulty, every outstanding client
      operation resolves within the settle budget — commits, or is
      explicitly rejected by admission control — without unbounded view
      thrashing. Resolution accounting is exact: an op that resolves
      twice (or never) fails the same invariant.
    - {b bounded queues}: campaigns run with admission control enabled,
      and the primary's request-admission queue must never be observed
      deeper than its configured limit, even under the open-loop
      [Load_spike]/[Load_ramp] plan events.

    Campaigns are deterministic: the same seed and plan produce the same
    {!outcome} byte for byte (including the JSONL rendering). *)

type violation = { invariant : string; detail : string }
(** [invariant] is a stable dotted name ("safety.agreement",
    "safety.replies", "safety.unique_execution",
    "overload.no_silent_loss", "overload.queue_bounded",
    "liveness.views"). *)

type outcome = {
  seed : int;
  plan : Plan.t;
  ops_total : int;
      (** steady + burst + open-loop arrivals actually offered *)
  ops_completed : int;
  ops_rejected : int;
      (** explicitly rejected by admission control past the retry budget *)
  sheds : int;  (** BUSY replies sent by replicas, cumulative *)
  final_view : int;  (** max view over audited replicas at the end *)
  views_after_heal : int;  (** view-change rounds consumed after forced heal *)
  sim_time : float;  (** virtual seconds until the campaign settled *)
  violations : violation list;
  alerts : Bft_trace.Monitor.alert list;
      (** typed health alerts raised by the always-on monitor, oldest
          first *)
  monitor : Bft_trace.Monitor.t;
      (** the campaign's monitor, for SLO sketches, {!Bft_trace.Monitor.summary}
          and {!Bft_trace.Monitor.last_bundle} *)
}

val failed : outcome -> bool

val run :
  ?ordering:Bft_core.Config.ordering ->
  ?unsafe_no_commit_quorum:bool ->
  ?trace:Bft_trace.Trace.t ->
  seed:int ->
  plan:Plan.t ->
  unit ->
  outcome
(** Runs entirely in virtual time; [ordering] (default
    {!Bft_core.Config.Single_primary}) selects the cluster's ordering
    mode, so crash-the-epoch-owner campaigns can run the protocol under
    {!Bft_core.Config.Rotating} leadership; [unsafe_no_commit_quorum] is
    the deliberately unsound protocol variant used to self-test the
    checker ({!Bft_core.Config.t}). Pass a live [trace] to record the
    campaign's protocol trace — used to make shrunk failures
    inspectable.

    Every campaign runs with an always-on health monitor attached
    ({!Bft_trace.Monitor}, {!Bft_trace.Monitor.default_limits}). Its
    flight recorder is armed with the campaign's trace, profile and
    (seed, plan) metadata — making every bundle replayable on its own —
    and any invariant violation triggers a post-mortem dump even when no
    detector fired. Monitoring is pure observation: it never changes an
    outcome. *)

val violations_json : violation list -> string
(** JSON array of [{"invariant", "detail"}] objects. *)

val jsonl : ?campaign:int -> ?bundle:string -> outcome -> string
(** One JSON line (no trailing newline) with a stable field order, so
    same-seed runs diff byte-identically. [bundle] adds a ["bundle"] field
    naming the run bundle ({!Bft_trace.Run_bundle}) that holds the
    protocol trace of the (shrunk) failure. *)

val shrink : run:(Plan.t -> outcome) -> Plan.t -> Plan.t * outcome
(** Greedy event-deletion shrinking: repeatedly drop any single event
    whose removal keeps the plan failing, until no single deletion does.
    [run] must be the same closed campaign the plan originally failed
    under. Returns the minimal plan and its (failing) outcome; if the
    input plan does not fail under [run], returns it unchanged. *)
