(** Deterministic protocol tracing.

    A [Trace.t] is a bounded ring buffer of typed events shared by every
    layer of one simulation (engine, network, replicas, clients). Tracing
    is off by default: the [nil] sink never records anything and every
    instrumentation site guards on {!enabled}, so the disabled cost is a
    field load and a branch. When enabled, a run is fully deterministic —
    identical seed and configuration produce a byte-identical {!jsonl}
    export — because events are only emitted from simulation callbacks
    and never consult wall-clock time or extra randomness.

    Events carry the emitting principal in [node]. Core-layer events use
    protocol principal ids (replicas [0..n-1], clients [n..]); network
    events use network node ids and put the host name in [detail];
    engine events use [-1]. *)

type kind =
  | Sim_fire  (** discrete event dispatched by the engine *)
  | Net_enqueue  (** datagram handed to the sender's egress link *)
  | Net_serialize  (** egress serialization completed *)
  | Net_deliver  (** datagram handed to the receiver's handler *)
  | Net_drop  (** datagram lost (detail: overflow|fault|blocked|down) *)
  | Client_send  (** client transmitted a fresh request *)
  | Client_retransmit
  | Client_deliver  (** client accepted a reply quorum *)
  | Request_recv  (** replica received a fresh request *)
  | Preprepare_sent
  | Preprepare_accepted
  | Prepared
  | Committed
  | Exec_request  (** one request executed (detail: tentative|final|read-only) *)
  | Exec_tentative  (** batch executed tentatively *)
  | Exec_final  (** batch executed after commit *)
  | Reply_sent
  | Viewchange_start
  | Viewchange_end
  | Checkpoint_stable

type event = {
  vtime : float;  (** virtual seconds *)
  node : int;
  kind : kind;
  seqno : int;  (** -1 when not applicable *)
  view : int;  (** -1 when not applicable *)
  req_id : int64;  (** -1 when not applicable; see {!req_id} *)
  detail : string;
}

type t

val nil : t
(** The disabled sink: records nothing, costs (almost) nothing. *)

val create : ?capacity:int -> ?sim_events:bool -> unit -> t
(** A live sink keeping the newest [capacity] events (default 65536).
    [sim_events] (default false) additionally records one [Sim_fire] per
    engine event — complete but very chatty. *)

val enabled : t -> bool

val sim_events : t -> bool
(** Whether engine-level [Sim_fire] events should be emitted into [t]. *)

val emit :
  t ->
  vtime:float ->
  node:int ->
  ?seqno:int ->
  ?view:int ->
  ?req_id:int64 ->
  ?detail:string ->
  kind ->
  unit
(** Record one event; a no-op on a disabled sink. Call sites on hot paths
    should guard with [if Trace.enabled t then ...] so the disabled cost
    stays a branch. *)

val total : t -> int
(** Events ever emitted (including those evicted by the ring). *)

val length : t -> int
(** Events currently held. *)

val dropped : t -> int
(** Events evicted by ring overflow ([total - length]). *)

val events : t -> event list
(** Surviving events, oldest first (emission order). *)

val iter : t -> (event -> unit) -> unit

val iter_newest : t -> int -> (event -> unit) -> unit
(** [iter_newest t k f] visits the newest [k] surviving events, oldest
    first, without touching the rest of the ring. *)

val clear : t -> unit

val req_id : client:int -> ts:int64 -> int64
(** Globally unique request id: the client principal in the high bits,
    the client's timestamp in the low 40. *)

val escape : string -> string
(** Escape a string for embedding in a JSON string literal; shared by the
    sibling exporters. *)

val event_jsonl : event -> string
(** One JSON object, no trailing newline; fixed key order and float
    formatting so equal traces render byte-identically. *)

val jsonl : t -> string
(** All surviving events, one JSON object per line. *)
