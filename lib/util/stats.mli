(** Online and batch summary statistics used by the benchmark harness.

    Memory is bounded: up to [capacity] samples are retained verbatim
    (default 8192); beyond that the accumulator keeps a
    deterministic reservoir (Vitter's algorithm R with a private xorshift
    generator — no global RNG, so results are reproducible). While nothing
    has been dropped every summary is exact and byte-identical to a plain
    store-everything accumulator; once the reservoir is in play
    [mean]/[min]/[max]/[total] stay exact (running aggregates) while
    [stddev] switches to a Welford accumulator and percentiles become
    reservoir estimates. *)

type t
(** A mutable accumulator of float samples. *)

val create : ?capacity:int -> unit -> t
(** [capacity] bounds retained samples; must be at least 2. *)

val add : t -> float -> unit

val count : t -> int
(** Total samples ever added (including any dropped from the reservoir). *)

val retained : t -> int
(** Samples currently held; [min (count t) capacity]. *)

val capacity : t -> int

val mean : t -> float
(** Mean of all samples (exact); [nan] when empty. *)

val stddev : t -> float
(** Sample standard deviation; [0.] with fewer than two samples. Exact
    two-pass while nothing has been dropped, Welford estimate after. *)

val min : t -> float

val max : t -> float

val total : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]], nearest-rank on the sorted
    retained samples; [nan] when empty.  O(n log n) on first call after
    adds. *)

val median : t -> float

val p50 : t -> float

val p95 : t -> float

val p99 : t -> float

val to_list : t -> float list
(** Retained samples in insertion order (all samples while nothing has been
    dropped). *)

(** Streaming single-quantile estimator: the P² algorithm (Jain &
    Chlamtac, CACM 1985). Five markers, O(1) memory per quantile, fully
    deterministic (pure arithmetic on the observation stream — same
    stream, same estimate). Exact while fewer than five observations have
    arrived; afterwards the middle marker tracks the target quantile with
    piecewise-parabolic interpolation. This is what powers always-on SLO
    tracking in {!Bft_trace.Monitor}: unlike the reservoir above it never
    discards tail information by random replacement, and its memory does
    not grow with the run. *)
module P2 : sig
  type t

  val create : q:float -> unit -> t
  (** Track the [q]-quantile, [q] in (0,1) exclusive. *)

  val add : t -> float -> unit

  val count : t -> int
  (** Observations ever added. *)

  val quantile : t -> float
  (** Current estimate; [nan] when empty, exact (nearest-rank) below five
      observations. *)
end

(** A fixed bank of {!P2} estimators for the monitor's SLO quantiles
    (p50/p95/p99) plus exact running count/mean/min/max. The three
    estimates are read sorted, so [p50 <= p95 <= p99 <= max] holds on any
    stream. *)
module Sketch : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  val mean : t -> float

  val min : t -> float

  val max : t -> float

  val p50 : t -> float

  val p95 : t -> float

  val p99 : t -> float
end
