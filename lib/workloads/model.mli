(** Analytic performance model over {!Bft_sim.Calibration} cost profiles.

    Predicts, from a profile plus the protocol parameters (n, f, batch
    bounds, payload sizes, ordering mode), the per-request CPU and wire
    occupancy at the primary and backups, the closed-loop throughput at a
    given client count, the saturation knee and its binding resource, and
    the unloaded latency — using the same per-message cost formulas the
    simulator charges and the real wire codec for message sizes. The
    [report] entry point compares predictions against the golden
    virtual-time bench rows; CI gates the default profile on
    {!default_tolerance}. *)

type resource = Primary_cpu | Backup_cpu | Link | Client_cpu

val resource_name : resource -> string

type prediction = {
  pr_profile : string;
  pr_clients : int;
  pr_batch : int;  (** modeled steady-state batch size *)
  pr_ops_per_sec : float;  (** predicted closed-loop throughput *)
  pr_knee_ops_per_sec : float;  (** saturation ceiling over all resources *)
  pr_binding : resource;  (** what binds at the ceiling *)
  pr_latency : float;  (** unloaded latency, seconds *)
  pr_primary_cpu : float;  (** CPU seconds per request at the primary *)
  pr_backup_cpu : float;
  pr_client_cpu : float;
  pr_primary_out_bytes : float;  (** egress wire bytes per request *)
  pr_primary_in_bytes : float;
  pr_backup_out_bytes : float;
  pr_backup_in_bytes : float;
}

val predict :
  ?exec_fixed:float ->
  cal:Bft_sim.Calibration.t ->
  arg:int ->
  res:int ->
  clients:int ->
  unit ->
  prediction
(** Single-primary closed-loop prediction for an [arg]/[res] operation at
    [clients] closed-loop clients spread over {!Microbench.client_machines}
    client machines, under the default {!Bft_core.Config.make} at [f = 1].
    [exec_fixed] is the service's own fixed execute cost (0 for the null
    service). *)

val predict_rotating :
  cal:Bft_sim.Calibration.t ->
  arg:int ->
  res:int ->
  clients:int ->
  epoch_length:int ->
  unit ->
  float
(** Predicted saturation throughput (ops/s) under rotating ordering: all
    [n] replicas propose concurrently, so ingestion and proposing spread
    [n] ways while execution and replies stay per-request work
    everywhere. *)

type row = {
  rw_label : string;
  rw_unit : string;
  rw_observed : float;
  rw_predicted : float;
  rw_rel_err : float;  (** (predicted - observed) / observed *)
  rw_binding : resource option;  (** throughput rows only *)
}

type report = {
  rp_profile : string;
  rp_rows : row list;
}

val default_tolerance : float
(** 0.25: the documented tolerance band the CI gate enforces on the
    default profile. *)

val report :
  cal:Bft_sim.Calibration.t ->
  golden:Saturation.t ->
  unit ->
  report
(** One row per golden bench row: micro latencies, every saturation
    point, the scaling rows, and the rotating comparison. *)

val row_ok : row -> bool

val report_ok : report -> bool
(** Every row within the tolerance band. *)

val render : report -> string
(** Deterministic human-readable table (pure arithmetic, fixed formats). *)

val summary :
  cal:Bft_sim.Calibration.t ->
  arg:int ->
  res:int ->
  unit ->
  string
(** Per-request budget table for one operation shape at full batch: CPU
    and wire occupancy per role, unloaded latency, knee and binding
    resource. *)
