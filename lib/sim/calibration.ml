type t = {
  name : string;
  udp_send_cost : float;
  udp_recv_cost : float;
  byte_touch_cost : float;
  digest_base_cost : float;
  digest_byte_cost : float;
  mac_base_cost : float;
  mac_byte_cost : float;
  pk_sign_cost : float;
  pk_verify_cost : float;
  protocol_op_cost : float;
  link_bandwidth : float;
  switch_latency : float;
  frame_overhead : int;
  mtu_payload : int;
  disk_seek : float;
  disk_bandwidth : float;
}

(* Fitted to the paper's anchors (DESIGN.md §6):
   - NO-REP null op round trip ~0.1 ms => ~20 us per UDP send/recv;
   - MD5 at ~4.2 cycles/byte on a 600 MHz PIII => 7 ns/byte;
   - UMAC32 ~1 cycle/byte with a small fixed cost => "negligible";
   - 1024-bit modular signature ~30 ms / verify ~1 ms at 600 MHz
     (the Rampart-era public-key bottleneck the paper cites);
   - 100 Mb/s => 12.5e6 B/s; 1472 B of UDP payload per 1518 B frame;
   - Quantum Atlas 10K: ~5 ms positioning, ~20 MB/s sustained. *)
let testbed_2001 =
  {
    name = "testbed-2001";
    udp_send_cost = 20e-6;
    udp_recv_cost = 20e-6;
    byte_touch_cost = 2.5e-9;
    digest_base_cost = 1.5e-6;
    digest_byte_cost = 7e-9;
    mac_base_cost = 0.6e-6;
    mac_byte_cost = 1.7e-9;
    pk_sign_cost = 30e-3;
    pk_verify_cost = 1e-3;
    protocol_op_cost = 3e-6;
    link_bandwidth = 12.5e6;
    switch_latency = 12e-6;
    frame_overhead = 46;
    mtu_payload = 1472;
    disk_seek = 5e-3;
    disk_bandwidth = 20e6;
  }

(* A contemporary server on kernel networking: ~3 GHz core (5x the PIII
   clock, wider issue), SHA-NI/AES-NI class digest and MAC throughput,
   sub-100-us curve signatures, 10 GbE with a cut-through switch, NVMe
   storage. The UDP stack still costs microseconds per datagram — the
   dominant term the paper's successors (RECIPE et al.) point at. *)
let tengbe_kernel =
  {
    name = "10gbe-kernel";
    udp_send_cost = 3e-6;
    udp_recv_cost = 3e-6;
    byte_touch_cost = 0.1e-9;
    digest_base_cost = 0.2e-6;
    digest_byte_cost = 1e-9;
    mac_base_cost = 0.1e-6;
    mac_byte_cost = 0.3e-9;
    pk_sign_cost = 50e-6;
    pk_verify_cost = 130e-6;
    protocol_op_cost = 0.5e-6;
    link_bandwidth = 1.25e9;
    switch_latency = 2e-6;
    frame_overhead = 46;
    mtu_payload = 1472;
    disk_seek = 80e-6;
    disk_bandwidth = 2e9;
  }

(* Kernel-bypass / zero-copy transport on the same CPU: posting a verb
   costs a fraction of a microsecond, payload bytes are never copied,
   25 GbE links with jumbo transfer units and a sub-microsecond switch.
   Crypto is unchanged from [tengbe_kernel] — which is the point: once
   the stack cost evaporates, digests and MACs are what is left. *)
let rdma_zerocopy =
  {
    name = "rdma-zerocopy";
    udp_send_cost = 0.3e-6;
    udp_recv_cost = 0.3e-6;
    byte_touch_cost = 0.0;
    digest_base_cost = 0.2e-6;
    digest_byte_cost = 1e-9;
    mac_base_cost = 0.1e-6;
    mac_byte_cost = 0.3e-9;
    pk_sign_cost = 50e-6;
    pk_verify_cost = 130e-6;
    protocol_op_cost = 0.2e-6;
    link_bandwidth = 3.125e9;
    switch_latency = 0.5e-6;
    frame_overhead = 26;
    mtu_payload = 4096;
    disk_seek = 80e-6;
    disk_bandwidth = 2e9;
  }

let default = testbed_2001

let profiles =
  [
    ("testbed-2001", testbed_2001);
    ("10gbe-kernel", tengbe_kernel);
    ("rdma-zerocopy", rdma_zerocopy);
  ]

let profile_names = List.map fst profiles

let name t = t.name

let digest_cost t n = t.digest_base_cost +. (float_of_int n *. t.digest_byte_cost)

let mac_cost t n = t.mac_base_cost +. (float_of_int n *. t.mac_byte_cost)

let frames t n = if n <= 0 then 1 else (n + t.mtu_payload - 1) / t.mtu_payload

let wire_bytes t n = n + (frames t n * t.frame_overhead)

let transmission_time t n = float_of_int (wire_bytes t n) /. t.link_bandwidth
