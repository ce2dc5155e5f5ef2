(* Overload robustness: the capped liveness backoff shared by view changes
   and state refetch, the client's jittered shed-retry schedule (seeded,
   so reproducible), the open-loop arrival processes, and the
   graceful-degradation invariants under a 10x open-loop burst — every
   arrival commits or is explicitly rejected, the admission queue stays
   within its configured bound, replicas never disagree on an executed
   batch, and with admission control disabled nothing is ever shed. *)

module Openloop = Bft_workloads.Openloop
module Replica = Bft_core.Replica
module Client = Bft_core.Client
module Config = Bft_core.Config
module Monitor = Bft_trace.Monitor
module Rng = Bft_util.Rng
module Stats = Bft_util.Stats

let check = Alcotest.check

(* --- liveness backoff (view change + state refetch) --------------------- *)

let test_liveness_backoff_doubles_and_caps () =
  let base = 0.25 in
  for a = 0 to 6 do
    check (Alcotest.float 1e-12)
      (Printf.sprintf "attempt %d doubles" a)
      (base *. Float.pow 2.0 (float_of_int a))
      (Replica.liveness_backoff ~base ~attempts:a)
  done;
  check (Alcotest.float 1e-12) "attempt 7 capped at 64x" (base *. 64.0)
    (Replica.liveness_backoff ~base ~attempts:7);
  check (Alcotest.float 1e-12) "attempt 30 still capped" (base *. 64.0)
    (Replica.liveness_backoff ~base ~attempts:30)

(* --- client retry backoff ----------------------------------------------- *)

let test_retry_backoff_deterministic () =
  let schedule seed =
    let rng = Rng.split (Rng.of_int seed) "client" in
    List.init 12 (fun a ->
        Client.retry_backoff ~base:0.05 ~cap:64.0 ~rng ~attempt:a)
  in
  List.iter2
    (fun x y ->
      check Alcotest.bool "same seed, same schedule (bit for bit)" true
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)))
    (schedule 7) (schedule 7);
  check Alcotest.bool "different seed, different jitter" true
    (schedule 7 <> schedule 8);
  List.iteri
    (fun i d ->
      let nominal = 0.05 *. Float.min 64.0 (Float.pow 2.0 (float_of_int i)) in
      check Alcotest.bool
        (Printf.sprintf "attempt %d within jitter band" i)
        true
        (d >= nominal && d <= 1.25 *. nominal))
    (schedule 7)

(* --- arrival processes --------------------------------------------------- *)

let test_validate_process () =
  let bad what p =
    match Openloop.validate_process p with
    | Ok () -> Alcotest.failf "%s: expected a validation error" what
    | Error _ -> ()
  in
  let wave ?(base_rate = 0.0) ?(burst_rate = 10.0) ?(period = 1.0) ?(duty = 0.5) () =
    Openloop.Square_wave { base_rate; burst_rate; period; duty }
  and ramp ?(rate_to = 10.0) ?(duration = 1.0) () =
    Openloop.Ramp { rate_to; start = 1.0; duration }
  in
  bad "zero poisson rate" (Openloop.Poisson { rate = 0.0 });
  bad "negative base rate" (wave ~base_rate:(-1.0) ());
  bad "zero period" (wave ~period:0.0 ());
  bad "duty of one" (wave ~duty:1.0 ());
  bad "zero ramp duration" (ramp ~duration:0.0 ());
  (* NaN and infinity are refused too: NaN passes no comparison. *)
  bad "nan poisson rate" (Openloop.Poisson { rate = Float.nan });
  bad "infinite poisson rate" (Openloop.Poisson { rate = Float.infinity });
  bad "nan base rate" (wave ~base_rate:Float.nan ());
  bad "infinite burst rate" (wave ~burst_rate:Float.infinity ());
  bad "nan period" (wave ~period:Float.nan ());
  bad "infinite period" (wave ~period:Float.infinity ());
  bad "nan duty" (wave ~duty:Float.nan ());
  bad "nan ramp rate" (ramp ~rate_to:Float.nan ());
  bad "infinite ramp duration" (ramp ~duration:Float.infinity ());
  (* [run] refuses an endless or undefined horizon before it builds a
     cluster: with [infinity] the arrivals would never stop. *)
  List.iter
    (fun duration ->
      Alcotest.check_raises (Printf.sprintf "run for %g" duration)
        (Invalid_argument "Openloop.run: duration must be positive and finite")
        (fun () -> ignore (Openloop.run ~duration (wave ()) ())))
    [ Float.infinity; Float.nan ];
  match Openloop.validate_process (wave ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid process rejected: %s" e

let test_square_wave_shape () =
  let p =
    Openloop.Square_wave
      { base_rate = 100.0; burst_rate = 1000.0; period = 1.0; duty = 0.25 }
  in
  check (Alcotest.float 1e-9) "mean rate" 325.0 (Openloop.mean_rate p);
  check (Alcotest.float 0.0) "burst phase" 1000.0 (Openloop.rate_at p ~now:0.1);
  check (Alcotest.float 0.0) "base phase" 100.0 (Openloop.rate_at p ~now:0.5);
  (* the burst window is [cycle, cycle + duty * period): the edge itself
     belongs to the base segment — the exact case that once wedged the
     piecewise sampler in an infinite boundary re-draw *)
  check (Alcotest.float 0.0) "duty edge belongs to base" 100.0
    (Openloop.rate_at p ~now:0.25);
  check (Alcotest.float 0.0) "second cycle bursts again" 1000.0
    (Openloop.rate_at p ~now:1.1)

let test_arrivals_deterministic_and_advancing () =
  let p =
    Openloop.Square_wave
      { base_rate = 50.0; burst_rate = 500.0; period = 1.0; duty = 0.2 }
  in
  let stream seed =
    let rng = Rng.split (Rng.of_int seed) "arrivals" in
    let rec go acc now n =
      if n = 0 then List.rev acc
      else
        let t = Openloop.next_arrival rng p ~now in
        go (t :: acc) t (n - 1)
    in
    go [] 0.0 500
  in
  List.iter2
    (fun x y ->
      check Alcotest.bool "same seed, same arrivals" true
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)))
    (stream 3) (stream 3);
  let rec mono = function
    | x :: (y :: _ as rest) ->
      check Alcotest.bool "strictly increasing" true (y > x);
      mono rest
    | _ -> ()
  in
  mono (stream 3)

let test_square_wave_long_run_rate () =
  let p =
    Openloop.Square_wave
      { base_rate = 100.0; burst_rate = 1000.0; period = 1.0; duty = 0.25 }
  in
  let rng = Rng.split (Rng.of_int 11) "count" in
  let rec count now n =
    let t = Openloop.next_arrival rng p ~now in
    if t < 20.0 then count t (n + 1) else n
  in
  let n = count 0.0 0 in
  let expect = Openloop.mean_rate p *. 20.0 in
  check Alcotest.bool
    (Printf.sprintf "%d arrivals within 15%% of %.0f" n expect)
    true
    (Float.abs (float_of_int n -. expect) < 0.15 *. expect)

let test_zero_base_rate_skips_to_burst () =
  let p =
    Openloop.Square_wave
      { base_rate = 0.0; burst_rate = 100.0; period = 1.0; duty = 0.25 }
  in
  let rng = Rng.split (Rng.of_int 5) "z" in
  let t = Openloop.next_arrival rng p ~now:0.5 in
  check Alcotest.bool "skips the silent segment" true (t >= 1.0);
  let cycle = Float.of_int (int_of_float t) in
  check Alcotest.bool "lands inside a burst window" true (t -. cycle <= 0.25)

(* A linear ramp (the chaos plan's Load_ramp): rate 0 at [start] rising to
   [rate_to] at [start + duration]. Its second half carries three times the
   first half's mass (3/8 vs 1/8 of [rate_to * duration]); at 10k
   expected arrivals the ratio's standard deviation is about 2.3%, so a 10%
   tolerance fails only on a wrong shape. *)
let test_ramp_shape () =
  let start = 2.0 and duration = 4.0 in
  let p = Openloop.Ramp { rate_to = 5000.0; start; duration } in
  let stream seed =
    let rng = Rng.split (Rng.of_int seed) "ramp" in
    let rec go acc now =
      let t = Openloop.next_arrival rng p ~now in
      if t = infinity then List.rev acc else go (t :: acc) t
    in
    go [] 0.0
  in
  let arrivals = stream 9 in
  List.iter
    (fun t ->
      if t < start || t >= start +. duration then
        Alcotest.failf "arrival %.6f outside [%.1f, %.1f)" t start
          (start +. duration))
    arrivals;
  let mid = start +. (duration /. 2.0) in
  let first = List.length (List.filter (fun t -> t < mid) arrivals) in
  let second = List.length arrivals - first in
  let ratio = float_of_int second /. float_of_int first in
  check Alcotest.bool
    (Printf.sprintf "second half %d / first half %d = %.2f within 10%% of 3"
       second first ratio)
    true
    (Float.abs (ratio -. 3.0) < 0.3);
  check Alcotest.bool "same seed, same arrivals" true
    (List.equal
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       arrivals (stream 9))

(* --- the 10x burst ------------------------------------------------------- *)

let burst_config ?(policy = Config.Reject_new) ?(limit = 16) () =
  Config.make ~f:1 ~admission_queue_limit:limit ~shed_policy:policy
    ~shed_retry_budget:4 ()

(* 10x square wave whose bursts exceed the cluster's saturation knee. *)
let process_10x =
  Openloop.Square_wave
    { base_rate = 1500.0; burst_rate = 15000.0; period = 0.5; duty = 0.2 }

let test_burst_sheds_without_silent_loss () =
  let r =
    Openloop.run ~config:(burst_config ()) ~seed:7 ~stubs:192 ~duration:1.0
      process_10x ()
  in
  check Alcotest.bool "the burst was actually shed" true
    (r.Openloop.ol_sheds > 0);
  check Alcotest.int "no silent loss" 0 r.Openloop.ol_unresolved;
  check Alcotest.int "resolution accounting exact" r.Openloop.ol_offered
    (r.Openloop.ol_completed + r.Openloop.ol_rejected);
  check Alcotest.bool "admission queue bounded" true
    (r.Openloop.ol_peak_queue <= 16);
  check Alcotest.int "no safety violations" 0 r.Openloop.ol_safety_violations;
  check Alcotest.bool "accepted p99 bounded" true
    (Stats.p99 r.Openloop.ol_latency < 5.0);
  check Alcotest.int "monitor agrees on shed count" r.Openloop.ol_sheds
    (Monitor.shed_total r.Openloop.ol_monitor)

let test_drop_oldest_policy () =
  let r =
    Openloop.run
      ~config:(burst_config ~policy:Config.Drop_oldest ())
      ~seed:11 ~stubs:192 ~duration:1.0 process_10x ()
  in
  check Alcotest.bool "drop-oldest sheds too" true (r.Openloop.ol_sheds > 0);
  check Alcotest.int "no silent loss" 0 r.Openloop.ol_unresolved;
  check Alcotest.bool "admission queue bounded" true
    (r.Openloop.ol_peak_queue <= 16);
  check Alcotest.int "no safety violations" 0 r.Openloop.ol_safety_violations

let test_run_deterministic () =
  let go () =
    let r =
      Openloop.run ~config:(burst_config ()) ~seed:3 ~stubs:64 ~duration:0.5
        process_10x ()
    in
    ( r.Openloop.ol_offered,
      r.Openloop.ol_completed,
      r.Openloop.ol_rejected,
      r.Openloop.ol_sheds,
      r.Openloop.ol_peak_queue )
  in
  check
    (Alcotest.pair
       (Alcotest.pair Alcotest.int Alcotest.int)
       (Alcotest.pair Alcotest.int (Alcotest.pair Alcotest.int Alcotest.int)))
    "same seed, same run"
    (let a, b, c, d, e = go () in
     ((a, b), (c, (d, e))))
    (let a, b, c, d, e = go () in
     ((a, b), (c, (d, e))))

let test_disabled_admission_never_sheds () =
  (* default config: admission_queue_limit = 0, shedding entirely off *)
  let r =
    Openloop.run ~seed:5 ~stubs:64 ~duration:0.5
      (Openloop.Poisson { rate = 800.0 })
      ()
  in
  check Alcotest.int "no sheds" 0 r.Openloop.ol_sheds;
  check Alcotest.int "no rejections" 0 r.Openloop.ol_rejected;
  check Alcotest.int "everything completed" r.Openloop.ol_offered
    r.Openloop.ol_completed;
  check Alcotest.int "no safety violations" 0 r.Openloop.ol_safety_violations

(* An SLO tight enough that any admitted request breaches it: the armed
   flight recorder must dump a post-mortem bundle naming the cost profile. *)
let test_alert_dumps_postmortem () =
  let limits =
    { Monitor.default_limits with Monitor.slo_p99 = 1e-6; slo_min_samples = 10 }
  in
  let r =
    Openloop.run ~seed:5 ~stubs:16 ~duration:0.3 ~limits
      (Openloop.Poisson { rate = 400.0 })
      ()
  in
  let m = r.Openloop.ol_monitor in
  check Alcotest.bool "an alert fired" true (Monitor.alert_count m > 0);
  match Monitor.last_bundle m with
  | None -> Alcotest.fail "no post-mortem bundle"
  | Some bundle ->
    let has needle =
      let n = String.length needle in
      let rec go i =
        i + n <= String.length bundle
        && (String.sub bundle i n = needle || go (i + 1))
      in
      go 0
    in
    check Alcotest.bool "header names the cost profile" true
      (has "\"cost_profile\":\"testbed-2001\"")

let () =
  Alcotest.run "overload"
    [
      ( "backoff",
        [
          Alcotest.test_case "liveness backoff doubles, caps at 64x" `Quick
            test_liveness_backoff_doubles_and_caps;
          Alcotest.test_case "client retry backoff deterministic" `Quick
            test_retry_backoff_deterministic;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "process validation" `Quick test_validate_process;
          Alcotest.test_case "square-wave shape" `Quick test_square_wave_shape;
          Alcotest.test_case "deterministic and advancing" `Quick
            test_arrivals_deterministic_and_advancing;
          Alcotest.test_case "long-run rate" `Quick
            test_square_wave_long_run_rate;
          Alcotest.test_case "zero base rate skips to burst" `Quick
            test_zero_base_rate_skips_to_burst;
          Alcotest.test_case "ramp shape" `Quick test_ramp_shape;
        ] );
      ( "burst",
        [
          Alcotest.test_case "10x burst sheds, no silent loss" `Slow
            test_burst_sheds_without_silent_loss;
          Alcotest.test_case "drop-oldest policy" `Slow test_drop_oldest_policy;
          Alcotest.test_case "deterministic run" `Slow test_run_deterministic;
          Alcotest.test_case "alert dumps a post-mortem" `Quick
            test_alert_dumps_postmortem;
          Alcotest.test_case "disabled admission never sheds" `Slow
            test_disabled_admission_never_sheds;
        ] );
    ]
