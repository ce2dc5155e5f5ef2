(** Reproduction of the Section 5 file-system benchmarks. *)

val fig8 : ?quick:bool -> unit -> Report.section list
(** Modified Andrew (Andrew100 and Andrew500): elapsed time for BFS,
    NO-REP and NFS-STD. [quick] runs Andrew5/Andrew25-style reductions. *)

val fig9 : ?quick:bool -> unit -> Report.section list
(** PostMark: transactions per second for BFS, NO-REP and NFS-STD. *)

val all : ?quick:bool -> unit -> Report.section list

(** One file-system benchmark run with its telemetry: per-phase elapsed
    breakdown, per-machine CPU-profile attribution, and the health monitor
    (call-latency SLO sketches for every backend; replica gauges and
    anomaly detectors for BFS). Monitoring is pure observation, so the
    numbers are those of an unmonitored run. *)
type observed = {
  ob_backend : Nfs_rig.backend;
  ob_elapsed : float;  (** total virtual seconds *)
  ob_calls : int;  (** NFS calls issued *)
  ob_phases : (string * float) list;  (** phase name, elapsed seconds *)
  ob_profile : Bft_trace.Profile.t;
  ob_monitor : Bft_trace.Monitor.t;
}

val run_andrew :
  ?client_mem:int -> ?server_mem:int -> n:int -> Nfs_rig.backend -> observed
(** Modified Andrew with [n] tree copies on one backend. *)

val run_postmark :
  ?files:int -> ?transactions:int -> Nfs_rig.backend -> observed * int
(** PostMark on one backend; also returns the transaction count (PostMark
    has a single phase, so [ob_phases] is empty). *)
