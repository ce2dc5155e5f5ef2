(** Always-on health telemetry: live gauges, typed anomaly detectors, and
    a flight recorder.

    A deployment layer (one replica group of a {!Bft_core.Cluster}, each
    group of a shard rig, a chaos campaign) samples its state into a
    {!gauges} record on a virtual-time cadence and feeds it to {!observe};
    completed client operations are pushed into {!observe_latency}, which
    maintains streaming P² quantile sketches ({!Bft_util.Stats.Sketch}) for
    always-on p50/p95/p99 SLO tracking in O(1) memory.

    Four typed detectors raise structured {!alert}s:

    - {b stalled commit point}: the group-wide commit point stops advancing
      for [stall_after] seconds while reachable replicas report pending
      work;
    - {b silent leader}: the replica that must propose next (the view
      primary, or the current epoch owner under rotating ordering, as
      reported by the replicas' [r_ordering_owner] gauge) is unreachable
      or makes no execution progress for [silent_after] seconds while work
      is pending;
    - {b divergent checkpoint}: two reachable replicas report different
      digests for the same stable checkpoint sequence number;
    - {b SLO breach}: the streaming latency p99 exceeds [slo_p99];
    - {b overload}: the p99 of {e admitted} traffic exceeds [slo_p99]
      while admission control is actively shedding — shedding by itself is
      healthy degradation (a gauge, never an alert), but a tail-latency
      breach on the traffic that {e was} admitted means the shed rate is
      not absorbing the excess.

    Detectors are edge-triggered (one alert per episode, re-armed when the
    condition clears). The monitor is pure arithmetic over observations —
    no randomness, no wall clock — so attaching one never perturbs a run's
    virtual-time results.

    When a flight recorder is installed ({!set_flight_recorder}), every
    alert — and every external {!trigger}, e.g. a chaos invariant
    violation — dumps a replayable JSONL post-mortem bundle: a header with
    caller metadata (seed, plan), the alert log, the SLO summary, the
    recent gauge window, the CPU profile and the newest protocol-trace
    events. *)

(** One replica's health gauges as sampled by the deployment layer. *)
type replica_gauges = {
  r_id : int;
  r_reachable : bool;
      (** scrape succeeded: the machine is up from the monitor's vantage *)
  r_view : int;
  r_last_executed : int;
  r_last_committed : int;
  r_last_stable : int;
  r_stable_digest : string;  (** printable digest of the stable checkpoint *)
  r_queue_depth : int;  (** primary batching queue *)
  r_backlog : int;  (** requests received but not yet executed *)
  r_log_depth : int;  (** live slots in the message log *)
  r_replay_dropped : int;  (** cumulative authenticator replays dropped *)
  r_shed : int;  (** cumulative requests shed by admission control *)
  r_null_fill : int;
      (** cumulative rotating-mode null fills: own slots abandoned below an
          epoch handoff and filled with null batches *)
  r_reclaim : int;
      (** cumulative rotating-mode reclaims: a silent owner's in-window
          slots nulled by the primary *)
  r_ordering_owner : int;
      (** who this replica expects to propose the next uncommitted slot:
          the view primary, or the current epoch owner under rotating
          ordering (-1 if unknown) *)
}

(** One sampling tick over a whole replica group. *)
type gauges = {
  g_time : float;
  g_completed : int;  (** cumulative client operations completed *)
  g_rejected : int;  (** cumulative client operations explicitly rejected *)
  g_replicas : replica_gauges array;
}

type limits = {
  stall_after : float;  (** seconds without commit progress under load *)
  silent_after : float;  (** seconds of leader silence under load *)
  slo_p99 : float;  (** latency SLO in seconds *)
  slo_min_samples : int;  (** sketch samples before the SLO detector arms *)
}

val default_limits : limits
(** Stall/silence thresholds sit below the protocol's 0.25 s view-change
    timeout (so a dead primary is flagged while backups still wait it out)
    and far above healthy inter-commit gaps; SLO p99 is 0.5 s over at
    least 50 samples. *)

type alert_kind =
  | Stalled_commit of { seqno : int; stuck_for : float; backlog : int }
  | Silent_leader of { view : int; primary : int; silent_for : float }
  | Divergent_checkpoint of { seqno : int; replicas : (int * string) list }
  | Slo_breach of { p99 : float; limit : float; samples : int }
  | Overload of { shed_rate : float; p99 : float; limit : float }

type alert = { a_at : float; a_group : string; a_kind : alert_kind }

val kind_name : alert_kind -> string
(** Stable dotted name, e.g. ["monitor.silent_leader"]. *)

val alert_detail : alert -> string
(** One-line human rendering. *)

val alert_json : alert -> string
(** One JSON object (no trailing newline), fixed field order. *)

type t

val create : ?limits:limits -> ?window:int -> ?group:string -> unit -> t
(** [window] bounds the gauge ring kept for post-mortem bundles (default
    256 ticks); [group] labels alerts and bundles (e.g. ["g0/"]). *)

val group : t -> string

val limits : t -> limits

val observe : t -> gauges -> unit
(** Feed one sampling tick: updates derived gauges and runs every
    detector. Ticks must arrive in non-decreasing [g_time] order. *)

val observe_latency : t -> float -> unit
(** Feed one completed client operation's latency (seconds). *)

val alerts : t -> alert list
(** All alerts raised, oldest first. *)

val alert_count : t -> int

val healthy : t -> bool
(** No alerts so far. *)

val alerts_json : t -> string
(** JSON array of {!alert_json} objects. *)

val latency_sketch : t -> Bft_util.Stats.Sketch.t
(** The streaming SLO sketch (p50/p95/p99 over all observed latencies). *)

val throughput : t -> float
(** Completions per virtual second over the last sampling interval. *)

val view_changes : t -> int
(** Cumulative view advances observed across sampling ticks. *)

val checkpoint_lag : t -> int
(** Max (last_executed - last_stable) over reachable replicas, newest
    tick. *)

val replay_drops : t -> int
(** Total authenticator replays dropped, newest tick. *)

val shed_total : t -> int
(** Total requests shed by admission control, newest tick. *)

val shed_rate : t -> float
(** Sheds per virtual second over the last sampling interval. *)

val rejected_total : t -> int
(** Total client operations explicitly rejected, newest tick. *)

val null_fill_total : t -> int
(** Total rotating-mode null fills across replicas, newest tick. *)

val reclaim_total : t -> int
(** Total rotating-mode owner reclaims across replicas, newest tick. *)

val peak_queue : t -> int
(** Highest per-replica admission-queue depth ever observed — what the
    chaos "queues stay bounded" invariant checks against the configured
    [admission_queue_limit]. *)

val samples_observed : t -> int
(** Gauge ticks observed so far. *)

val summary : t -> string
(** One-line operator summary (alerts, throughput, SLO quantiles, view
    changes, checkpoint lag, replay drops). *)

val gauges_json : t -> gauges -> string
(** One gauge row as a JSON object (used by bundles and exports). *)

(* --- flight recorder --- *)

val set_flight_recorder :
  ?trace:Trace.t ->
  ?profile:(unit -> Profile.t) ->
  ?trace_last:int ->
  ?on_bundle:(alert option -> string -> unit) ->
  t ->
  unit ->
  unit
(** Arm the flight recorder. On every alert (and {!trigger}) a post-mortem
    bundle is rendered and handed to [on_bundle] ([Some alert] for
    detector alerts, [None] for external triggers); the newest bundle is
    also retained for {!last_bundle}. [trace_last] bounds the number of
    newest protocol-trace events embedded (default 512); [profile] is
    called at dump time for the CPU breakdown. *)

val set_meta : t -> (string * string) list -> unit
(** Key/value pairs embedded in the bundle header — a chaos campaign
    records its seed and plan text here, which is what makes the bundle
    replayable on its own. *)

val trigger : t -> at:float -> reason:string -> unit
(** External post-mortem trigger (e.g. a chaos invariant violation): dump
    a bundle without raising an alert. No-op unless a recorder is armed. *)

val last_bundle : t -> string option
(** The newest post-mortem bundle, if any was dumped. *)

val bundle_count : t -> int
