(** Saturation bench suite: the 0/0, 4/0, 0/4 micro-operations, a
    batched-throughput curve driven to saturation, and the scaling,
    rotating-ordering and cross-shard rows — all on the simulated clock.

    Every result is deterministic for a fixed seed — byte-identical across
    hosts and refactors — and the golden part serves as the regression
    surface. The simulator's own wall-clock cost is measured by the
    performance ledger ([bench/ledger]), not here. *)

type micro = {
  mi_label : string;
  mi_arg : int;
  mi_res : int;
  mi_mean_us : float;
  mi_stddev_us : float;
  mi_ops : int;
}

type point = {
  pt_clients : int;
  pt_ops_per_sec : float;
  pt_completed : int;
  pt_retransmissions : int;
}

type scale_point = {
  sc_groups : int;
  sc_clients : int;  (** total closed-loop proxies (groups x per-group) *)
  sc_completed : int;
  sc_retransmissions : int;
  sc_per_group : int array;  (** completions per group over the window *)
  sc_ops_per_sec : float;
      (** requests retired per simulated second, summed over groups
          (["sim_rps"] in the JSON documents) *)
}

(** The rotating-vs-single-primary comparison: both ordering modes driven
    with the same heavy offered load (well past the single primary's
    saturation point, where its CPU is the curve's ceiling), so the row
    compares throughput ceilings mode against mode. *)
type rotating_row = {
  ro_clients : int;
  ro_epoch_length : int;
  ro_single_ops_per_sec : float;  (** single-primary ceiling *)
  ro_ops_per_sec : float;  (** rotating-mode throughput *)
  ro_completed : int;
  ro_retransmissions : int;
  ro_speedup : float;
      (** [ro_ops_per_sec / ro_single_ops_per_sec]; the rotation gate
          checks it is at least 1.3 *)
}

(** One row of the cross-shard transaction cost axis: the mixed workload
    ({!Microbench.mixed_txn_throughput}) on a fixed 2-group deployment at
    one cross-shard fraction. Fraction 0.0 is the plain sharded baseline
    through the transaction layer, so row deltas isolate the marginal 2PC
    cost. Reported only in {!to_json} / {!print} — not part of the golden
    surface. *)
type cross_row = {
  cx_fraction : float;
  cx_ops_per_sec : float;  (** one txn counts as one op *)
  cx_completed : int;
  cx_cross_committed : int;
  cx_cross_aborted : int;
}

(** One health-monitor summary row (a micro shape, a curve point, or a
    scaling sweep's fleet rollup). *)
type health_row = {
  hl_label : string;
  hl_alerts : Bft_trace.Monitor.alert list;
  hl_line : string;
}

type t = {
  seed : int;
  quick : bool;
  cost_profile : string;
      (** name of the {!Bft_sim.Calibration} profile the suite ran under —
          stamped on every JSON row *)
  micro : micro list;
  curve : point list;
  scaling : scale_point list;
  rotating : rotating_row;
  cross_shard : cross_row list;
  health : health_row list;  (** empty unless [run ~health:true] *)
}

val run :
  ?quick:bool ->
  ?seed:int ->
  ?max_groups:int ->
  ?health:bool ->
  ?cal:Bft_sim.Calibration.t ->
  unit ->
  t
(** [max_groups] bounds the scaling sweep: group counts double from 1 up
    to it (default 4, i.e. 1/2/4 groups). With [health] (default false)
    every rig runs under an always-on monitor and [t.health] carries one
    summary row per bench; observation is pure, so {!virtual_json} is
    byte-identical with and without it — CI asserts exactly that. [cal]
    selects the cost profile (default [testbed-2001]); the golden surface
    is only meaningful under the default profile. *)

val health_alerts : t -> Bft_trace.Monitor.alert list
(** Every alert across all health rows, in run order (none for a healthy
    suite). *)

val health_lines : t -> string list
(** The health section {!print} ends with: a total line, then one summary
    row per bench; empty unless [run ~health:true]. *)

val virtual_json : t -> string
(** The golden surface (micro, saturation, scaling and rotating rows) in a
    stable byte-exact format — what CI compares against the checked-in
    golden file. *)

val to_json : t -> string
(** The golden surface plus the derived summaries (curve peak, 2-group
    scaling speedup) and the cross-shard rows ([BENCH_micro.json], schema
    [bft-lab/bench-micro/v3]). *)

val of_json : string -> t
(** Read back a document {!virtual_json} or {!to_json} wrote, so that
    printing it again gives the same bytes. The v2 golden carries no
    cross-shard rows; neither document carries health rows. Raises
    [Failure] on any other schema or a malformed document. *)

val print : t -> unit
