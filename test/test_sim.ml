(* Tests for the discrete-event engine, timers, CPU model and calibration. *)

module Engine = Bft_sim.Engine
module Timer = Bft_sim.Timer
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration

let check = Alcotest.check

let feps = Alcotest.float 1e-9

(* --- engine -------------------------------------------------------------- *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:0.3 (fun () -> log := "c" :: !log);
  Engine.schedule e ~delay:0.1 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:0.2 (fun () -> log := "b" :: !log);
  Engine.run e;
  check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check feps "clock" 0.3 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Engine.schedule e ~delay:3.0 (fun () -> incr fired);
  Engine.run ~until:2.0 e;
  check Alcotest.int "only first" 1 !fired;
  check feps "clock at until" 2.0 (Engine.now e);
  Engine.run e;
  check Alcotest.int "second later" 2 !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "nested" [ "outer"; "inner" ] (List.rev !log);
  check feps "time" 2.0 (Engine.now e)

let test_engine_past_clamped () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () -> Engine.schedule_at e 0.5 (fun () -> ()));
  Engine.run e;
  check feps "no travel back" 1.0 (Engine.now e)

let test_engine_stop () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1.0 (fun () ->
      incr fired;
      Engine.stop e);
  Engine.schedule e ~delay:2.0 (fun () -> incr fired);
  Engine.run e;
  check Alcotest.int "stopped" 1 !fired

let test_engine_max_events () =
  let e = Engine.create () in
  let fired = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1.0 (fun () -> incr fired)
  done;
  Engine.run ~max_events:3 e;
  check Alcotest.int "bounded" 3 !fired;
  check Alcotest.int "pending" 7 (Engine.pending e)

let test_engine_step () =
  let e = Engine.create () in
  check Alcotest.bool "empty step" false (Engine.step e);
  Engine.schedule e ~delay:0.5 (fun () -> ());
  check Alcotest.bool "steps" true (Engine.step e);
  check Alcotest.bool "drained" false (Engine.step e)

(* --- timers --------------------------------------------------------------- *)

let test_timer_fires () =
  let e = Engine.create () in
  let fired = ref false in
  let _t = Timer.start e ~delay:1.0 (fun () -> fired := true) in
  Engine.run e;
  check Alcotest.bool "fired" true !fired

let test_timer_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Timer.start e ~delay:1.0 (fun () -> fired := true) in
  Timer.cancel t;
  Engine.run e;
  check Alcotest.bool "cancelled" false !fired;
  check Alcotest.bool "inactive" false (Timer.active t)

let test_timer_restart () =
  let e = Engine.create () in
  let hits = ref [] in
  let t = Timer.start e ~delay:1.0 (fun () -> hits := "old" :: !hits) in
  let _t2 = Timer.restart e t ~delay:2.0 (fun () -> hits := "new" :: !hits) in
  Engine.run e;
  check (Alcotest.list Alcotest.string) "only new" [ "new" ] !hits

let test_timer_never () =
  check Alcotest.bool "never inactive" false (Timer.active Timer.never)

let test_timer_cancel_leaves_queue () =
  (* A cancelled timer leaves the event queue at once. *)
  let e = Engine.create () in
  let timers =
    List.init 1000 (fun i ->
        Timer.start e ~delay:(float_of_int (i mod 7)) (fun () ->
            Alcotest.fail "cancelled timer fired"))
  in
  check Alcotest.int "queued" 1000 (Engine.pending e);
  List.iter Timer.cancel timers;
  check Alcotest.int "none left" 0 (Engine.pending e);
  (* survivors of a partial cancel still fire in time, then FIFO, order *)
  let fired = ref [] in
  let timers =
    List.init 10 (fun i ->
        Timer.start e ~delay:(float_of_int (i mod 3)) (fun () ->
            fired := i :: !fired))
  in
  List.iteri (fun i t -> if i mod 2 = 1 then Timer.cancel t) timers;
  check Alcotest.int "half left" 5 (Engine.pending e);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "order" [ 0; 6; 4; 2; 8 ] (List.rev !fired)

let test_cluster_queue_bounded () =
  (* Each completed client operation cancels its 150 ms retransmission
     timer. A 24-client closed loop on the null service completes ~14k
     operations per virtual second, so a queue that kept cancelled timers
     would hold ~2400 events; the live ones number under 100. *)
  let open Bft_core in
  let cluster =
    Cluster.create ~config:(Config.make ~f:1 ()) ~seed:1
      ~service:(fun _ -> Service.null ())
      ()
  in
  let op = Service.null_op ~read_only:false ~arg_size:0 ~result_size:0 in
  let completed = ref 0 in
  for _ = 1 to 24 do
    let client = Cluster.add_client cluster in
    let rec loop () =
      Client.invoke client op (fun _ ->
          incr completed;
          loop ())
    in
    loop ()
  done;
  Cluster.run ~until:1.0 cluster;
  check Alcotest.bool "operations completed" true (!completed > 1000);
  let pending = Engine.pending (Cluster.engine cluster) in
  if pending >= 200 then Alcotest.failf "%d events pending" pending

(* --- cpu ------------------------------------------------------------------- *)

let test_cpu_serializes_handlers () =
  let e = Engine.create () in
  let cpu = Cpu.create e () in
  let finish_times = ref [] in
  for _ = 1 to 3 do
    Cpu.dispatch cpu (fun () ->
        Cpu.charge cpu 1.0;
        finish_times := Cpu.virtual_now cpu :: !finish_times)
  done;
  Engine.run e;
  check (Alcotest.list feps) "serialized" [ 1.0; 2.0; 3.0 ] (List.rev !finish_times);
  check feps "busy" 3.0 (Cpu.total_busy cpu)

let test_cpu_speed () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~speed:2.0 () in
  Cpu.dispatch cpu (fun () -> Cpu.charge cpu 1.0);
  Engine.run e;
  check feps "half the wall time" 0.5 (Cpu.busy_until cpu)

let test_cpu_charge_outside_handler () =
  let e = Engine.create () in
  let cpu = Cpu.create e () in
  Cpu.charge cpu 0.25;
  check feps "busy until" 0.25 (Cpu.busy_until cpu);
  check feps "virtual now outside" 0.25 (Cpu.virtual_now cpu)

let test_cpu_dispatch_waits_for_busy () =
  let e = Engine.create () in
  let cpu = Cpu.create e () in
  Cpu.charge cpu 1.0;
  let start = ref nan in
  Cpu.dispatch cpu (fun () -> start := Engine.now e);
  Engine.run e;
  check feps "starts after busy" 1.0 !start

let test_cpu_negative_charge () =
  let e = Engine.create () in
  let cpu = Cpu.create e () in
  Alcotest.check_raises "negative" (Invalid_argument "Cpu.charge: negative")
    (fun () -> Cpu.charge cpu (-1.0))

(* A charge runs once per cost centre per message: it must not allocate,
   in or out of a handler. The delta is taken against an empty loop, so
   only allocation by the measured call itself counts. *)
let minor_words_per_1000 f =
  let loop g =
    g ();
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      g ()
    done;
    Gc.minor_words () -. before
  in
  loop f -. loop (fun () -> ())

let test_cpu_charge_allocates_nothing () =
  let e = Engine.create () in
  let cpu = Cpu.create e () in
  check feps "outside a handler" 0.0
    (minor_words_per_1000 (fun () -> Cpu.charge ~cat:Cpu.Digest cpu 1e-6));
  let inside = ref nan in
  Cpu.dispatch cpu (fun () ->
      inside := minor_words_per_1000 (fun () -> Cpu.charge ~cat:Cpu.Mac_gen cpu 1e-6));
  Engine.run e;
  check feps "inside a handler" 0.0 !inside

(* --- calibration ------------------------------------------------------------ *)

let test_calibration_helpers () =
  let c = Calibration.default in
  check Alcotest.int "one frame" 1 (Calibration.frames c 0);
  check Alcotest.int "one frame full" 1 (Calibration.frames c 1472);
  check Alcotest.int "two frames" 2 (Calibration.frames c 1473);
  check Alcotest.int "wire bytes" (1472 + 46) (Calibration.wire_bytes c 1472);
  check Alcotest.bool "100Mb/s" true
    (let t = Calibration.transmission_time c 12500 in
     t > 0.001 && t < 0.0011);
  check Alcotest.bool "digest linear" true
    (Calibration.digest_cost c 2000 > 2.0 *. Calibration.digest_cost c 500);
  check Alcotest.bool "mac cheap" true
    (Calibration.mac_cost c 16 < Calibration.digest_cost c 4096 /. 10.0)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "fifo at same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "past clamped" `Quick test_engine_past_clamped;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "step" `Quick test_engine_step;
        ] );
      ( "timer",
        [
          Alcotest.test_case "fires" `Quick test_timer_fires;
          Alcotest.test_case "cancel" `Quick test_timer_cancel;
          Alcotest.test_case "restart" `Quick test_timer_restart;
          Alcotest.test_case "never" `Quick test_timer_never;
          Alcotest.test_case "cancel leaves the queue" `Quick
            test_timer_cancel_leaves_queue;
          Alcotest.test_case "cluster queue bounded" `Quick
            test_cluster_queue_bounded;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes handlers" `Quick
            test_cpu_serializes_handlers;
          Alcotest.test_case "speed scaling" `Quick test_cpu_speed;
          Alcotest.test_case "charge outside handler" `Quick
            test_cpu_charge_outside_handler;
          Alcotest.test_case "dispatch waits" `Quick test_cpu_dispatch_waits_for_busy;
          Alcotest.test_case "negative charge" `Quick test_cpu_negative_charge;
          Alcotest.test_case "charge allocates nothing" `Quick
            test_cpu_charge_allocates_nothing;
        ] );
      ( "calibration",
        [ Alcotest.test_case "helpers" `Quick test_calibration_helpers ] );
    ]
