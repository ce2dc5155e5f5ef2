(** Experiment output: one section per paper figure, carrying both the
    rendered table and the paper-anchor comparisons recorded into
    EXPERIMENTS.md. *)

type anchor = {
  description : string;
  paper : string;  (** what the paper reports *)
  measured : string;  (** what this reproduction measures *)
  ok : bool;  (** does the shape/direction hold? *)
}

type section = {
  id : string;  (** e.g. "fig4" *)
  title : string;
  table : Bft_util.Table.t;
  anchors : anchor list;
}

val print : section -> unit

val ratio_anchor :
  description:string -> paper_ratio:float -> measured:float -> tolerance:float ->
  anchor
(** Anchor comparing a measured ratio against the paper's, accepting a
    relative [tolerance] (e.g. 0.5 = within 50%). *)

val direction_anchor :
  description:string -> paper:string -> holds:bool -> measured:string -> anchor

val breakdown_section : Bft_trace.Timeline.t -> section
(** Render a folded trace timeline as a per-phase latency table
    (mean/p50/p95/p99 in microseconds plus each phase's share of the
    end-to-end mean), in the style of the paper's Section 4.2 latency
    discussion. *)

val profile_section : Bft_trace.Profile.t -> section
(** Render a CPU cost profile as a machine x category table (microseconds)
    with a cluster-wide total row — the paper's Section 4.2 cost breakdown.
    The title is tagged [UNBALANCED] if any machine's categories do not sum
    exactly to its busy time. *)

val crypto_section : ?ops:int -> Bft_crypto.Tally.snapshot -> section
(** Render crypto operation counts (MACs generated/verified, bytes
    digested); with [ops], also per completed request. *)
