(* Tests for the simulated switched Ethernet. *)

module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration
module Network = Bft_net.Network
module Rng = Bft_util.Rng

let check = Alcotest.check

type rig = {
  engine : Engine.t;
  net : Network.t;
  nodes : Network.node_id array;
  received : (Network.node_id * Network.node_id * string) list ref;  (* dst,src,wire *)
}

let make_rig ?(count = 3) ?recv_buffer ?trace () =
  let net = Network.simulation ?trace ~rng:(Rng.of_int 1) () in
  let engine = Network.engine net in
  let received = ref [] in
  let nodes =
    Array.init count (fun i ->
        let cpu = Cpu.create engine () in
        Network.add_node net ~cpu ?recv_buffer ~name:(Printf.sprintf "n%d" i) ())
  in
  Array.iter
    (fun node ->
      Network.set_handler net node (fun ~src ~wire ~size ->
          ignore size;
          received := (node, src, wire) :: !received))
    nodes;
  { engine; net; nodes; received }

let test_basic_delivery () =
  let r = make_rig () in
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "hello";
  Engine.run r.engine;
  check Alcotest.int "one delivery" 1 (List.length !(r.received));
  let dst, src, wire = List.hd !(r.received) in
  check Alcotest.int "dst" r.nodes.(1) dst;
  check Alcotest.int "src" r.nodes.(0) src;
  check Alcotest.string "payload" "hello" wire

let test_latency_model () =
  let r = make_rig () in
  let cal = Calibration.default in
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) ~size:1000 "x";
  Engine.run r.engine;
  (* send cpu cost + egress serialization + switch + ingress serialization,
     then the receive handler runs after its own CPU work. *)
  let expected_min =
    (2.0 *. Calibration.transmission_time cal 1000) +. cal.Calibration.switch_latency
  in
  check Alcotest.bool "not before the wire allows" true (Engine.now r.engine >= expected_min)

let test_multicast_single_egress () =
  let r = make_rig () in
  (* Multicast to two receivers must serialize once on the sender's egress:
     total time is less than two sequential unicasts of the same size. *)
  let big = 100_000 in
  Network.multicast r.net ~src:r.nodes.(0) ~dsts:[ r.nodes.(1); r.nodes.(2) ]
    ~size:big "m";
  Engine.run r.engine;
  let t_multicast = Engine.now r.engine in
  let r2 = make_rig () in
  Network.send r2.net ~src:r2.nodes.(0) ~dst:r2.nodes.(1) ~size:big "m";
  Network.send r2.net ~src:r2.nodes.(0) ~dst:r2.nodes.(2) ~size:big "m";
  Engine.run r2.engine;
  let t_unicast = Engine.now r2.engine in
  check Alcotest.int "both delivered" 2 (List.length !(r.received));
  check Alcotest.bool "single egress is faster" true
    (t_multicast < t_unicast *. 0.75)

let test_loopback () =
  let r = make_rig () in
  Network.multicast r.net ~src:r.nodes.(0) ~dsts:[ r.nodes.(0); r.nodes.(1) ] "m";
  Engine.run r.engine;
  check Alcotest.int "self + peer" 2 (List.length !(r.received))

let test_down_node_drops () =
  let r = make_rig () in
  Network.set_up r.net r.nodes.(1) false;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "x";
  Network.send r.net ~src:r.nodes.(1) ~dst:r.nodes.(0) "y";
  Engine.run r.engine;
  check Alcotest.int "nothing" 0 (List.length !(r.received));
  check Alcotest.bool "counted" true (Network.dropped_datagrams r.net >= 1);
  Network.set_up r.net r.nodes.(1) true;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "x";
  Engine.run r.engine;
  check Alcotest.int "recovered" 1 (List.length !(r.received))

(* Regression: loopback (src = dst) once bypassed the fault model entirely —
   a self-addressed datagram was handed to the handler unconditionally, with
   no up check, no loss/duplication draws, and no trace event. *)
let test_loopback_faults () =
  let r = make_rig () in
  Network.set_loss r.net 1.0;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(0) "self";
  Engine.run r.engine;
  check Alcotest.int "loopback dropped at p=1" 0 (List.length !(r.received));
  check Alcotest.int "drop counted" 1 (Network.dropped_datagrams r.net);
  Network.set_loss r.net 0.0;
  Network.set_duplication r.net 1.0;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(0) "self";
  Engine.run r.engine;
  check Alcotest.int "loopback duplicated" 2 (List.length !(r.received))

let test_loopback_down_before_delivery () =
  (* A host that goes down between send and delivery keeps nothing, even
     from itself. *)
  let r = make_rig () in
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(0) "self";
  Network.set_up r.net r.nodes.(0) false;
  Engine.run r.engine;
  check Alcotest.int "no self-delivery on a down host" 0
    (List.length !(r.received));
  check Alcotest.int "counted as dropped" 1 (Network.dropped_datagrams r.net)

let test_loopback_trace () =
  let module Trace = Bft_trace.Trace in
  let trace = Trace.create () in
  let r = make_rig ~trace () in
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(0) "self";
  Engine.run r.engine;
  let delivers =
    List.filter
      (fun e -> e.Trace.kind = Trace.Net_deliver)
      (Trace.events trace)
  in
  check Alcotest.int "loopback delivery traced" 1 (List.length delivers);
  check Alcotest.int "on the loopback node" r.nodes.(0)
    (List.hd delivers).Trace.node

let test_drop_probability () =
  let r = make_rig () in
  Network.set_loss r.net 1.0;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "x";
  Engine.run r.engine;
  check Alcotest.int "all dropped" 0 (List.length !(r.received));
  check Alcotest.int "dropped counter" 1 (Network.dropped_datagrams r.net)

let test_duplication () =
  let r = make_rig () in
  Network.set_duplication r.net 1.0;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "x";
  Engine.run r.engine;
  check Alcotest.int "two copies" 2 (List.length !(r.received))

let test_partition () =
  let r = make_rig () in
  Network.install_partition r.net ~groups:[ [ r.nodes.(0) ]; [ r.nodes.(1) ] ];
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "x";
  (* a blocked pair cuts both directions *)
  Network.send r.net ~src:r.nodes.(1) ~dst:r.nodes.(0) "y";
  (* a third party still reaches both sides *)
  Network.send r.net ~src:r.nodes.(2) ~dst:r.nodes.(0) "z";
  Network.send r.net ~src:r.nodes.(2) ~dst:r.nodes.(1) "w";
  Engine.run r.engine;
  check Alcotest.int "pair blocked symmetrically" 2 (List.length !(r.received));
  check Alcotest.int "drops counted" 2 (Network.dropped_datagrams r.net)

let test_install_partition_and_heal () =
  let r = make_rig ~count:4 () in
  Network.install_partition r.net
    ~groups:[ [ r.nodes.(0); r.nodes.(1) ]; [ r.nodes.(2) ] ];
  (* within a group: fine; across groups: both directions dead; node 3 is in
     no group and talks to everyone. *)
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "in-group";
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(2) "cross";
  Network.send r.net ~src:r.nodes.(2) ~dst:r.nodes.(1) "cross-back";
  Network.send r.net ~src:r.nodes.(3) ~dst:r.nodes.(2) "outsider";
  Network.send r.net ~src:r.nodes.(2) ~dst:r.nodes.(3) "to-outsider";
  Engine.run r.engine;
  check Alcotest.int "only cross-group traffic lost" 3 (List.length !(r.received));
  Network.heal_partition r.net;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(2) "healed";
  Engine.run r.engine;
  check Alcotest.int "healed" 4 (List.length !(r.received))

let test_runtime_loss_ramp () =
  let r = make_rig () in
  Network.set_loss r.net 1.0;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "x";
  Engine.run r.engine;
  check Alcotest.int "all lost at p=1" 0 (List.length !(r.received));
  Network.set_loss r.net 0.0;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "x";
  Engine.run r.engine;
  check Alcotest.int "ramp back down" 1 (List.length !(r.received));
  Network.set_duplication r.net 1.0;
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) "x";
  Engine.run r.engine;
  check Alcotest.int "duplicated" 3 (List.length !(r.received));
  check Alcotest.bool "bad probability rejected" true
    (match Network.set_loss r.net 1.5 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_buffer_overflow_drops () =
  (* A tiny receive buffer and a burst of large datagrams: the tail of the
     burst must be dropped, the head delivered. *)
  let r = make_rig ~recv_buffer:0.001 () in
  (* Two senders converge on one ingress link: with a single sender the
     sender's own egress would pace the flow and nothing would overflow. *)
  for _ = 1 to 25 do
    Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) ~size:4096 "x";
    Network.send r.net ~src:r.nodes.(2) ~dst:r.nodes.(1) ~size:4096 "x"
  done;
  Engine.run r.engine;
  let delivered = List.length !(r.received) in
  check Alcotest.bool "some delivered" true (delivered > 0);
  check Alcotest.bool "some dropped" true (Network.dropped_datagrams r.net > 0);
  check Alcotest.int "conservation" 50
    (delivered + Network.dropped_datagrams r.net)

let test_counters () =
  let r = make_rig () in
  Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) ~size:100 "x";
  Engine.run r.engine;
  check Alcotest.int "sent" 1 (Network.sent_datagrams r.net);
  check Alcotest.int "delivered" 1 (Network.delivered_datagrams r.net);
  check Alcotest.bool "bytes incl overhead" true (Network.bytes_on_wire r.net > 100)

let test_bandwidth_bound () =
  (* 12.5 MB/s: pushing 1 MB point-to-point must take >= 80 ms. *)
  let r = make_rig () in
  for _ = 1 to 256 do
    Network.send r.net ~src:r.nodes.(0) ~dst:r.nodes.(1) ~size:4096 "x"
  done;
  Engine.run r.engine;
  check Alcotest.bool "bandwidth respected" true (Engine.now r.engine >= 0.080);
  check Alcotest.int "all delivered" 256 (List.length !(r.received))

let () =
  Alcotest.run "net"
    [
      ( "network",
        [
          Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
          Alcotest.test_case "latency model" `Quick test_latency_model;
          Alcotest.test_case "multicast single egress" `Quick
            test_multicast_single_egress;
          Alcotest.test_case "loopback" `Quick test_loopback;
          Alcotest.test_case "loopback faults" `Quick test_loopback_faults;
          Alcotest.test_case "loopback down host" `Quick
            test_loopback_down_before_delivery;
          Alcotest.test_case "loopback trace" `Quick test_loopback_trace;
          Alcotest.test_case "down node" `Quick test_down_node_drops;
          Alcotest.test_case "drop probability" `Quick test_drop_probability;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "install/heal partition" `Quick
            test_install_partition_and_heal;
          Alcotest.test_case "runtime loss ramp" `Quick test_runtime_loss_ramp;
          Alcotest.test_case "buffer overflow" `Quick test_buffer_overflow_drops;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "bandwidth bound" `Quick test_bandwidth_bound;
        ] );
    ]
