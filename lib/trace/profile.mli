(** Per-node, per-category virtual-time CPU cost breakdown.

    Generic over category labels so the trace library stays independent of
    the simulator: callers supply each node's per-category busy-seconds
    array plus the busy total reported by the CPU model, and the balance
    check is exact float equality because [node_total] folds the array in
    the same index order the CPU model uses to define its total. *)

type node = {
  pn_name : string;
  pn_seconds : float array;  (** busy seconds by category index *)
  pn_busy : float;  (** busy total reported by the CPU model *)
}

type t

val make : labels:string array -> (string * float array * float) list -> t
(** [make ~labels nodes] with each node as (name, per-category seconds,
    busy total). Raises [Invalid_argument] on category arity mismatch. *)

val labels : t -> string array

val nodes : t -> node list

val node_total : node -> float
(** Index-order fold of [pn_seconds]. *)

val balanced : t -> bool
(** Every node balanced ([node_total n = n.pn_busy], exact float
    equality): the profiler accounts for all busy time. *)

val totals : t -> float array
(** Cluster-wide busy seconds by category. *)

val total_busy : t -> float

val share : t -> int -> float
(** Category [i]'s fraction of cluster-wide busy time; 0 when idle. *)

val jsonl : t -> string
(** One JSON object per node, microsecond fields, fixed formatting. *)
