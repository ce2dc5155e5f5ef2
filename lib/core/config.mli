(** Protocol configuration: replication degree, windows and the six
    optimizations of Section 3.1, each independently toggleable so the
    benchmark harness can reproduce the Section 4.4 ablations. *)

type shed_policy =
  | Reject_new  (** a full admission queue refuses the incoming request *)
  | Drop_oldest
      (** a full admission queue evicts its oldest queued request (which is
          shed with a [Busy] reply) and admits the incoming one *)

type ordering =
  | Single_primary
      (** the paper's protocol: within a view, replica [view mod n] orders
          every sequence number *)
  | Rotating of { epoch_length : int }
      (** ordering leadership rotates deterministically: sequence numbers
          are partitioned into epochs of [epoch_length] slots and epoch
          [e] is ordered by replica [(view + e) mod n], so distinct
          replicas order disjoint seqno ranges concurrently and the
          MAC-generation/encode cost of ordering spreads across the
          group (the FnF-BFT parallel-leader idea). Execution stays in
          global seqno order; an epoch's first PRE-PREPARE carries the
          predecessor epoch's closing commit point, and view change
          subsumes a failed epoch owner. *)

type t = {
  f : int;  (** tolerated faults; [n = 3f + 1] *)
  n : int;
  checkpoint_interval : int;  (** K: checkpoint every K sequence numbers *)
  log_window : int;  (** L: high watermark is [h + L] *)
  batch_window : int;  (** W: batches in flight before queueing *)
  max_batch_requests : int;
      (** requests per batch; the summed size is bounded separately by
          {!max_batch_bytes} *)
  view_change_timeout : float;
  client_retry_timeout : float;
  (* --- optimizations (Section 3.1) --- *)
  digest_replies : bool;
  tentative_execution : bool;
  piggyback_commits : bool;
  read_only_optimization : bool;
  batching : bool;
  separate_request_transmission : bool;
  (* --- ablations beyond the paper --- *)
  public_key_signatures : bool;
      (** authenticate protocol messages with simulated public-key
          signatures instead of MAC vectors (the Rampart/SecureRing-era
          design the paper credits its speed against) *)
  unsafe_no_commit_quorum : bool;
      (** DELIBERATELY UNSOUND, test-only: treat a prepared batch as
          committed without waiting for the 2f+1 commit quorum. Exists so
          the chaos invariant checker can prove it detects (and shrinks)
          real safety violations; never enable it outside that self-test. *)
  (* --- overload protection --- *)
  admission_queue_limit : int;
      (** bound on the primary's pending-request queue; once full, requests
          are shed with an explicit [Busy] reply per [shed_policy].
          0 disables admission control entirely (the default, preserving
          the unbounded-queue behavior of the paper's library). *)
  shed_policy : shed_policy;
  shed_retry_budget : int;
      (** how many [Busy] replies a client absorbs (retrying with jittered
          exponential backoff) before reporting the operation as rejected *)
  ordering : ordering;
      (** who orders which sequence numbers (default [Single_primary]) *)
}

(** {2 Fixed protocol constants}

    The paper's library fixes these; no configuration changes them. *)

val max_batch_bytes : int
(** Bound on the summed wire size of a batch's requests: 4096 B. *)

val inline_threshold : int
(** Requests larger than this use separate transmission when
    [separate_request_transmission] is on: 255 B. *)

val commit_flush_delay : float
(** With [piggyback_commits], queued commits are flushed after this idle
    delay: 2 ms. *)

val make :
  ?checkpoint_interval:int ->
  ?log_window:int ->
  ?batch_window:int ->
  ?max_batch_requests:int ->
  ?view_change_timeout:float ->
  ?client_retry_timeout:float ->
  ?digest_replies:bool ->
  ?tentative_execution:bool ->
  ?piggyback_commits:bool ->
  ?read_only_optimization:bool ->
  ?batching:bool ->
  ?separate_request_transmission:bool ->
  ?public_key_signatures:bool ->
  ?unsafe_no_commit_quorum:bool ->
  ?admission_queue_limit:int ->
  ?shed_policy:shed_policy ->
  ?shed_retry_budget:int ->
  ?ordering:ordering ->
  f:int ->
  unit ->
  t
(** Defaults match the BFT library as benchmarked in the paper: all
    optimizations on except piggybacked commits (the one optimization the
    paper measured but did not ship), K = 128, L = 256. *)

val validate : t -> (unit, string) result
