(** Simulated 100 Mb/s switched Ethernet carrying UDP datagrams.

    Topology is the paper's: every host has a full-duplex link into one
    store-and-forward switch. A datagram serializes on the sender's egress
    link (once, even for multicast — the testbed used IP multicast), crosses
    the switch, and serializes again on each receiver's ingress link.
    Datagrams are unreliable: they can be dropped by fault injection or by
    receive-buffer overflow when a receiver's ingress link or CPU falls too
    far behind (this is what limits the unreplicated NO-REP baseline to
    ~15 clients in the paper's Figure 4).

    Messages carry both the real encoded bytes [wire] (used for
    authentication and decoding) and a modeled [size]; the modeled size is
    what consumes simulated bandwidth and CPU, letting micro-benchmarks use
    compact stand-ins for zero-filled payloads. *)

type t

type node_id = int

type handler = src:node_id -> wire:string -> size:int -> unit

val simulation :
  ?cal:Bft_sim.Calibration.t ->
  ?trace:Bft_trace.Trace.t ->
  rng:Bft_util.Rng.t ->
  unit ->
  t
(** A fresh engine (see {!engine}) and an empty network on it, both wired
    to [trace] (default {!Bft_trace.Trace.nil}); [cal] defaults to
    {!Bft_sim.Calibration.default}. Every deployment starts here, fault
    free: no loss, no duplication, no partition. *)

val engine : t -> Bft_sim.Engine.t

val calibration : t -> Bft_sim.Calibration.t

val add_node :
  t -> cpu:Bft_sim.Cpu.t -> ?recv_buffer:float -> name:string -> unit -> node_id
(** [recv_buffer] is the backlog (seconds of ingress work) beyond which
    datagrams are dropped, modelling socket-buffer overflow. *)

val set_handler : t -> node_id -> handler -> unit

val node_cpu : t -> node_id -> Bft_sim.Cpu.t

val profile : t -> Bft_trace.Profile.t
(** Per-machine, per-category CPU cost breakdown of every node, in
    node-id order, at this instant. Balanced by construction: each machine's category totals sum
    exactly to its {!Bft_sim.Cpu.total_busy}. *)

val set_up : t -> node_id -> bool -> unit
(** A down node silently drops everything it receives. *)

val is_up : t -> node_id -> bool

(* --- fault injection ---

   The one way to fault a network. All of these may be called while the
   simulation is running; they affect only datagrams transmitted after the
   call. *)

val set_loss : t -> float -> unit
(** Ramp the uniform drop probability; raises on values outside [0, 1]. *)

val set_duplication : t -> float -> unit
(** Ramp the duplication probability; raises on values outside [0, 1]. *)

val install_partition : t -> groups:node_id list list -> unit
(** Partition the network: nodes in different groups cannot exchange
    datagrams (both directions); nodes within one group — and nodes listed
    in no group — communicate freely. A cut pair drops traffic both ways,
    as a severed cable does, and costs O(1) per datagram however many pairs
    the partition cuts. Replaces any previous partition; loss and
    duplication probabilities are untouched. *)

val heal_partition : t -> unit
(** Clear every blocked pair (leaves loss/duplication untouched). *)

val send : t -> src:node_id -> dst:node_id -> ?size:int -> string -> unit
(** Charge the sender's CPU for the send, serialize on its egress link, and
    deliver (or drop). [size] defaults to the wire string length and must be
    at least it conceptually (unchecked — callers model padding). *)

val multicast : t -> src:node_id -> dsts:node_id list -> ?size:int -> string -> unit
(** One egress serialization and one CPU send charge; per-receiver ingress. *)

val trace : t -> Bft_trace.Trace.t
(** The sink given to {!simulation}; when live, datagram enqueue/
    serialize/deliver/drop events are emitted (with the network node id in
    [node] and the host name in [detail]). *)

(* --- counters for reports and tests --- *)

val sent_datagrams : t -> int

val dropped_datagrams : t -> int

val delivered_datagrams : t -> int

val bytes_on_wire : t -> int

val per_node_counters : t -> (string * int * int * int * int) list
(** [(name, sent, delivered, dropped, overflowed)] per host, in node-id
    order; [overflowed] is the subset of [dropped] lost to receive-buffer
    overflow. Drops are attributed to the destination host, so a
    saturation cliff (e.g. NO-REP past ~15 clients, paper Figure 4) shows
    up on the overloaded server rather than only in the global total. *)
