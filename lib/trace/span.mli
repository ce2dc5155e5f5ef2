(** Causal request DAGs reconstructed from a protocol trace.

    Spans are phases of a request's life (send, receive, execute, reply,
    deliver) and of a batch's ordering (pre-prepare, prepare, commit). Span
    ids derive deterministically from (request id, view, seqno, phase) via a
    splitmix64 finalizer, so identical traces yield identical DAGs and no
    span id needs to travel on the wire. Retransmissions fold into the
    originating span; cross-view reprocessing creates per-view spans that
    stay linked to the same request. *)

type phase =
  | Request
  | Recv
  | Preprepare
  | Prepare
  | Commit
  | Exec
  | Reply
  | Deliver

val id : req:int64 -> view:int -> seq:int -> phase:phase -> int64
(** Deterministic span id. Use [-1] / [-1L] for inapplicable fields, the
    same convention as trace events. *)

type span = {
  sp_id : int64;
  sp_phase : phase;
  sp_req : int64;  (** [-1L] for batch-level ordering spans *)
  sp_view : int;  (** [-1] when unknown (client-side spans) *)
  mutable sp_seq : int;  (** [-1] until the request is bound to a batch *)
  mutable sp_first : float;  (** earliest contributing event, virtual s *)
  mutable sp_last : float;  (** latest contributing event, virtual s *)
  mutable sp_events : int;  (** contributing events (retransmits fold in) *)
  mutable sp_nodes : int list;  (** distinct principals, first-seen order *)
  mutable sp_parents : int64 list;  (** causal predecessors *)
}

type t

val of_events : Trace.event list -> t
(** Fold a trace (oldest first, as {!Trace.events} returns) into a DAG.
    Deterministic: equal event lists produce identical structures. *)

val spans : t -> span list
(** All spans in creation order. *)

val edge_count : t -> int
(** Parent edges across all spans. *)

val find : t -> int64 -> span option

val requests : t -> int64 list
(** Request ids in first-appearance order. *)

type boundaries = {
  sent : float;  (** first [Client_send] (retransmissions excluded) *)
  recv : float;  (** first [Request_recv] at any replica *)
  recv_primary : float;  (** first primary-tagged [Request_recv] *)
  exec : float;  (** first [Exec_request] *)
  reply : float;  (** first [Reply_sent] *)
  deliver : float;  (** [Client_deliver] *)
}
(** The virtual times bounding one request's phases, [neg_infinity] where
    the trace holds no such event. *)

val boundaries : t -> int64 -> boundaries option
(** For a request of {!requests}; [None] when none of its events is a
    boundary (e.g. only retransmissions survived the trace ring). *)

val delivered : t -> int64 list
(** Requests whose reply quorum was accepted by the client. *)

val check : t -> (int64 * string) list
(** Completeness: for every delivered request, the deliver span must reach
    the request span through parent edges. Returns offenders with reasons;
    empty on a complete DAG. *)

val complete : t -> bool

val summary : t -> string
(** One-line counts: spans, edges, requests, delivered, incomplete. *)
