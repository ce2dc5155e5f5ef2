(** Micro-benchmark drivers for the paper's "simple service": operations
    with an [a]-byte argument and a [b]-byte zero-filled result, read-write
    or read-only, against BFT (any configuration) or NO-REP. Every driver
    takes an optional [cal] cost profile ({!Bft_sim.Calibration.profiles});
    the default is the paper's [testbed-2001]. *)

type latency_result = {
  mean : float;  (** seconds *)
  stddev : float;
  ops : int;
}

val client_speed : float
(** Relative speed of the latency rig's single client machine: the
    paper's 700 MHz client against the 600 MHz replicas. *)

val client_machines : int
(** Client machines the throughput rigs spread closed-loop clients over
    (5, as in the paper's testbed). *)

val latency_warmup : int
(** Operations discarded before measurement starts in {!bft_latency} and
    {!norep_latency}. *)

val bft_latency :
  ?config:Bft_core.Config.t ->
  ?ops:int ->
  ?seed:int ->
  ?cal:Bft_sim.Calibration.t ->
  ?trace:Bft_trace.Trace.t ->
  ?monitor:Bft_trace.Monitor.t ->
  arg:int ->
  res:int ->
  read_only:bool ->
  unit ->
  latency_result
(** Single client (700 MHz, as in Figures 2–3), ops invoked back to back.
    Pass a live [trace] sink to record the protocol trace of the run;
    fold it with {!Bft_trace.Timeline.of_trace} [~skip:latency_warmup]
    to decompose exactly the measured operations. Pass a [monitor] to
    attach always-on health telemetry ({!Bft_core.Cluster.attach_monitor});
    observation is pure, so the measured numbers are bit-identical with
    and without it. *)

(** One ordering owner's share of the run: batches it proposed and, under
    rotating ordering, its null fills and reclaims. *)
type owner_row = {
  ow_id : int;
  ow_batches : int;  (** PRE-PREPAREs this replica sent ([batch.sent]) *)
  ow_null_fill : int;  (** [rotate.null_fill] counter *)
  ow_reclaim : int;  (** [rotate.reclaim] counter *)
}

type profile_result = {
  pf_latency : latency_result;
  pf_profile : Bft_trace.Profile.t;
      (** per-machine, per-category CPU cost breakdown of the whole run *)
  pf_crypto : Bft_crypto.Tally.snapshot;
      (** crypto operation counts over the whole run (setup included) *)
  pf_series : Bft_trace.Series.t option;
      (** metric snapshots, when [series_every] was given *)
  pf_owners : owner_row list;
      (** per-replica ordering-ownership breakdown, replica order *)
}

val bft_profile :
  ?config:Bft_core.Config.t ->
  ?ops:int ->
  ?seed:int ->
  ?cal:Bft_sim.Calibration.t ->
  ?trace:Bft_trace.Trace.t ->
  ?series_every:float ->
  ?monitor:Bft_trace.Monitor.t ->
  arg:int ->
  res:int ->
  read_only:bool ->
  unit ->
  profile_result
(** {!bft_latency} plus profiling: resets the global crypto tally, runs the
    same rig, and captures the per-category CPU profile and crypto op
    counts. With [series_every], also samples the
    {!Bft_core.Cluster.series_names} columns on that virtual-time cadence
    into a ring of the newest 4096 samples; note the sampler adds engine
    events, so traced virtual times can differ from an unsampled run. The
    profile is balanced by construction (see {!Bft_trace.Profile.balanced}). *)

val norep_latency : ?ops:int -> arg:int -> res:int -> unit -> latency_result
(** The same back-to-back loop as {!bft_latency}, against the NO-REP
    server from one 700 MHz client machine. *)

type throughput_result = {
  ops_per_sec : float;  (** [nan] when the run stalled (NO-REP losses) *)
  completed : int;
  stalled_clients : int;
  retransmissions : int;
  drops_by_node : (string * int * int) list;
      (** [(host, dropped, overflowed)] for every host that lost at least
          one datagram — attributes a saturation cliff (e.g. NO-REP past
          ~15 clients, paper Figure 4) to the overloaded server. *)
}

val measure_window :
  ?at_window:(unit -> unit) ->
  Bft_sim.Engine.t ->
  warmup:float ->
  window:float ->
  (unit -> int list) ->
  int * int
(** The measurement every closed-loop driver here shares: run to the end
    of [warmup], snapshot the per-client completion counts, run [window]
    more, snapshot again. Returns the completions inside the window and
    the number of clients that completed none (stalled). [at_window] runs
    right after the first snapshot, for callers that count more than
    completions. *)

val bft_throughput :
  ?config:Bft_core.Config.t ->
  ?seed:int ->
  ?warmup:float ->
  ?window:float ->
  ?cal:Bft_sim.Calibration.t ->
  ?trace:Bft_trace.Trace.t ->
  ?monitor:Bft_trace.Monitor.t ->
  arg:int ->
  res:int ->
  read_only:bool ->
  clients:int ->
  unit ->
  throughput_result
(** Clients spread over {!client_machines} client machines, closed loop,
    measured over [window] seconds after [warmup]. [trace] and [monitor]
    as in {!bft_latency}. *)

type sharded_result = {
  sh_ops_per_sec : float;  (** virtual time, summed over all groups *)
  sh_completed : int;
  sh_per_group : int array;  (** completions per group over the window *)
  sh_stalled_clients : int;  (** proxies that made no progress *)
  sh_retransmissions : int;
  sh_drops_by_node : (string * int * int) list;
  sh_monitors : Bft_trace.Monitor.t array;
      (** per-group health monitors when [health] was requested (group
          order), else empty — roll them up with
          {!Bft_shard.Rig.health_rollup} *)
}

val sharded_throughput :
  ?seed:int ->
  ?warmup:float ->
  ?window:float ->
  ?cal:Bft_sim.Calibration.t ->
  ?trace:Bft_trace.Trace.t ->
  ?health:bool ->
  groups:int ->
  clients_per_group:int ->
  unit ->
  sharded_result
(** Uniform-single-key KV writes against a sharded deployment
    ({!Bft_shard.Rig} with [groups] replica groups on one simulation):
    [groups * clients_per_group] closed-loop proxies each pick a uniform
    key out of 4096 per op, so load spreads over the groups in proportion
    to the slots they own. Same [warmup]/[window] measurement as
    {!bft_throughput}. Every group runs the default {!Bft_core.Config.make}
    at [f = 1]. With [health] (default false), a monitor is attached per
    group before any client starts; results are bit-identical either
    way. *)

type mixed_result = {
  mx_ops_per_sec : float;
      (** virtual time; a cross-shard transaction counts as one op *)
  mx_completed : int;
  mx_cross_committed : int;
  mx_cross_aborted : int;
}

val mixed_txn_throughput :
  ?seed:int ->
  ?window:float ->
  ?cal:Bft_sim.Calibration.t ->
  groups:int ->
  clients_per_group:int ->
  cross_fraction:float ->
  unit ->
  mixed_result
(** Mixed single-key / cross-shard workload against a sharded deployment:
    [groups * clients_per_group] closed-loop {!Bft_shard.Txn} handles each
    issue, with probability [cross_fraction], a two-key cross-group atomic
    transaction (2PC through the decision group), and otherwise a plain
    single-key put. Throughput counts completed client operations, so the
    axis is comparable across fractions and the 2PC cost (two replicated
    rounds per participant plus the decision-group serialization) shows up
    directly. Raises [Invalid_argument] unless
    [0 <= cross_fraction <= 1]. *)

val norep_throughput :
  ?seed:int ->
  ?warmup:float ->
  ?window:float ->
  ?retry:bool ->
  arg:int ->
  res:int ->
  clients:int ->
  unit ->
  throughput_result
(** [retry = false] (paper behaviour): lost requests stall their client;
    when more than a quarter of the clients stall, [ops_per_sec] is [nan]
    (the paper plots no such points). *)
