(** Cost model of the paper's testbed.

    The experiments ran on Dell Precision 410 workstations (600 MHz
    Pentium III, Linux 2.2 without SMP) on an isolated, full-duplex
    100 Mb/s switched Ethernet (Extreme Networks Summit48). Every
    simulated CPU and network cost comes from one of these records so the
    whole reproduction is calibrated in a single place (DESIGN.md §6 lists
    the paper anchors the defaults were fitted to). *)

type t = {
  name : string;
      (** profile name stamped into bench rows / traces / monitor bundles *)
  (* --- per-machine CPU costs, in seconds at speed 1.0 (600 MHz PIII) --- *)
  udp_send_cost : float;  (** kernel UDP send path, per datagram *)
  udp_recv_cost : float;  (** kernel UDP receive path, per datagram *)
  byte_touch_cost : float;
      (** per byte of payload copied in or out of the kernel *)
  digest_base_cost : float;  (** MD5 fixed cost *)
  digest_byte_cost : float;  (** MD5 per byte (~4.2 cycles/B on PIII) *)
  mac_base_cost : float;  (** UMAC32 fixed cost ("negligible" per paper) *)
  mac_byte_cost : float;  (** UMAC32 per byte *)
  pk_sign_cost : float;  (** 1024-bit Rabin/RSA signature, ablation only *)
  pk_verify_cost : float;
  protocol_op_cost : float;
      (** bookkeeping per protocol message handled (log insert, lookups) *)
  (* --- network --- *)
  link_bandwidth : float;  (** bytes/s per direction per host link *)
  switch_latency : float;  (** store-and-forward + propagation *)
  frame_overhead : int;  (** Ethernet+IP+UDP header bytes per frame *)
  mtu_payload : int;  (** UDP payload bytes per frame *)
  (* --- disk (Quantum Atlas 10K 18WLS) --- *)
  disk_seek : float;  (** average positioning time *)
  disk_bandwidth : float;  (** bytes/s sequential *)
}

val default : t
(** Calibrated to the DSN'01 anchors — the [testbed-2001] profile. *)

val testbed_2001 : t
(** [= default]: the paper's 600 MHz PIII / switched 100 Mb/s testbed. *)

val tengbe_kernel : t
(** ["10gbe-kernel"]: modern CPU (fast digest/MAC, cheap copies), kernel
    UDP stack (~3 us per datagram), 10 GbE serialization, NVMe disk. *)

val rdma_zerocopy : t
(** ["rdma-zerocopy"]: kernel-bypass transport — near-zero per-message
    stack cost, zero-copy payloads, 25 GbE — same crypto as
    {!tengbe_kernel}, so the remaining CPU term is crypto + protocol. *)

val profiles : (string * t) list
(** All named cost profiles, [(name, profile)], in presentation order. *)

val profile_names : string list

val name : t -> string

val digest_cost : t -> int -> float
(** CPU seconds to digest [n] bytes. *)

val mac_cost : t -> int -> float

val frames : t -> int -> int
(** Number of Ethernet frames for a UDP payload of [n] bytes. *)

val wire_bytes : t -> int -> int
(** Total bytes on the wire (payload + per-frame overhead). *)

val transmission_time : t -> int -> float
(** Link serialization time for a payload of [n] bytes. *)
