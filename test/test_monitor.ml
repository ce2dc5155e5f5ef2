(* Health-telemetry stack: the streaming P² quantile sketch against exact
   sorted-list quantiles, the typed anomaly detectors on synthetic gauge
   streams (each detector fires on its fault shape, stays edge-triggered,
   and a healthy stream raises nothing), and the always-on monitor wired
   through a chaos campaign — a crashed primary must produce typed alerts
   and a replayable post-mortem bundle; the same campaign without faults
   must stay silent. *)

module Stats = Bft_util.Stats
module Monitor = Bft_trace.Monitor
module Plan = Bft_chaos.Plan
module Campaign = Bft_chaos.Campaign

let check = Alcotest.check

(* --- quantile sketch vs exact quantiles -------------------------------- *)

let exact_percentile samples p =
  let s = Stats.create ~capacity:(List.length samples + 1) () in
  List.iter (Stats.add s) samples;
  Stats.percentile s p

let sketch_of samples =
  let sk = Stats.Sketch.create () in
  List.iter (Stats.Sketch.add sk) samples;
  sk

let test_sketch_exact_below_five () =
  let samples = [ 3.0; 1.0; 2.0; 9.0 ] in
  let sk = sketch_of samples in
  check (Alcotest.float 0.0) "p50 exact" (exact_percentile samples 50.0)
    (Stats.Sketch.p50 sk);
  check (Alcotest.float 0.0) "p99 exact" (exact_percentile samples 99.0)
    (Stats.Sketch.p99 sk);
  check (Alcotest.float 0.0) "min" 1.0 (Stats.Sketch.min sk);
  check (Alcotest.float 0.0) "max" 9.0 (Stats.Sketch.max sk);
  check (Alcotest.float 1e-9) "mean" 3.75 (Stats.Sketch.mean sk)

(* The P² estimate is approximate once markers are interpolating; on a few
   hundred samples it tracks the exact nearest-rank quantile to within a
   modest fraction of the observed range. The property pins that bound so
   a regression in the marker update shows up as a gross error. *)
let sketch_tracks_exact_prop =
  QCheck.Test.make ~name:"P2 sketch tracks exact quantiles" ~count:100
    QCheck.(list_of_size Gen.(int_range 100 400) (float_range 0.0 1000.0))
    (fun samples ->
      let sk = sketch_of samples in
      let lo = List.fold_left Stdlib.min infinity samples in
      let hi = List.fold_left Stdlib.max neg_infinity samples in
      let tolerance = (0.15 *. (hi -. lo)) +. 1e-9 in
      let close what p est =
        let exact = exact_percentile samples p in
        if Float.abs (est -. exact) > tolerance then
          QCheck.Test.fail_reportf "%s: estimate %.3f vs exact %.3f (tol %.3f)"
            what est exact tolerance;
        true
      in
      close "p50" 50.0 (Stats.Sketch.p50 sk)
      && close "p95" 95.0 (Stats.Sketch.p95 sk)
      && close "p99" 99.0 (Stats.Sketch.p99 sk))

let sketch_deterministic_prop =
  QCheck.Test.make ~name:"P2 sketch is deterministic" ~count:100
    QCheck.(list (float_range 0.0 1000.0))
    (fun samples ->
      let a = sketch_of samples and b = sketch_of samples in
      let same f = Int64.equal (Int64.bits_of_float (f a)) (Int64.bits_of_float (f b)) in
      same Stats.Sketch.p50 && same Stats.Sketch.p95 && same Stats.Sketch.p99
      && Stats.Sketch.count a = Stats.Sketch.count b)

(* The three P² estimators run independently; read sorted, they stay
   ordered on any stream. Tight clusters with a sparse tail are the shape
   that crosses raw estimates, so the generator mixes them in. *)
let sketch_ordered_prop =
  let value =
    QCheck.Gen.(
      frequency
        [
          (6, float_range 16.0 18.0);
          (2, float_range 0.0 1000.0);
          (1, map float_of_int (int_range 0 3));
        ])
  in
  QCheck.Test.make ~name:"P2 sketch: p50 <= p95 <= p99 <= max" ~count:500
    QCheck.(make ~print:Print.(list float) Gen.(list_size (int_range 1 600) value))
    (fun samples ->
      let sk = sketch_of samples in
      let p50 = Stats.Sketch.p50 sk and p95 = Stats.Sketch.p95 sk in
      let p99 = Stats.Sketch.p99 sk and max = Stats.Sketch.max sk in
      if p50 <= p95 && p95 <= p99 && p99 <= max then true
      else
        QCheck.Test.fail_reportf "p50 %g p95 %g p99 %g max %g" p50 p95 p99 max)

(* --- synthetic gauge streams for the detectors -------------------------- *)

let rg ?(reachable = true) ?(view = 0) ?(exec = 0) ?(committed = 0)
    ?(stable = 0) ?(digest = "d0") ?(queue = 0) ?(backlog = 0) ?(log = 0)
    ?(replay = 0) ?(shed = 0) ?(null_fill = 0) ?(reclaim = 0) ?owner id =
  {
    Monitor.r_id = id;
    r_reachable = reachable;
    r_view = view;
    r_last_executed = exec;
    r_last_committed = committed;
    r_last_stable = stable;
    r_stable_digest = digest;
    r_queue_depth = queue;
    r_backlog = backlog;
    r_log_depth = log;
    r_replay_dropped = replay;
    r_shed = shed;
    r_null_fill = null_fill;
    r_reclaim = reclaim;
    r_ordering_owner = (match owner with Some o -> o | None -> view mod 4);
  }

let tick ?(rejected = 0) ~at replicas completed =
  {
    Monitor.g_time = at;
    g_completed = completed;
    g_rejected = rejected;
    g_replicas = replicas;
  }

let kinds m = List.map (fun a -> Monitor.kind_name a.Monitor.a_kind) (Monitor.alerts m)

let test_healthy_stream_no_alerts () =
  let m = Monitor.create () in
  for i = 0 to 40 do
    let at = 0.05 *. float_of_int i in
    let seq = i * 3 in
    let replicas =
      Array.init 4 (fun id ->
          rg ~exec:seq ~committed:seq ~stable:(seq - (seq mod 10)) id)
    in
    Monitor.observe_latency m 0.001;
    Monitor.observe m (tick ~at replicas (i * 5))
  done;
  check Alcotest.bool "healthy" true (Monitor.healthy m);
  check Alcotest.int "no alerts" 0 (Monitor.alert_count m);
  check Alcotest.int "ticks seen" 41 (Monitor.samples_observed m);
  check Alcotest.bool "throughput positive" true (Monitor.throughput m > 0.0)

let test_stalled_commit_fires_once () =
  let m = Monitor.create () in
  (* tentative execution keeps advancing (so the leader is not silent) while
     the commit point itself is stuck with a backlog *)
  let stuck ~at ~exec =
    tick ~at (Array.init 4 (fun id -> rg ~committed:5 ~exec ~backlog:2 id)) 10
  in
  Monitor.observe m (stuck ~at:0.0 ~exec:5);
  Monitor.observe m (stuck ~at:0.3 ~exec:6);
  check (Alcotest.list Alcotest.string) "one stall alert"
    [ "monitor.stalled_commit" ] (kinds m);
  (* persistently stalled: edge-triggered, no second alert *)
  Monitor.observe m (stuck ~at:0.6 ~exec:7);
  check Alcotest.int "still one" 1 (Monitor.alert_count m);
  (* progress re-arms the detector; a fresh stall fires again *)
  Monitor.observe m
    (tick ~at:0.7 (Array.init 4 (fun id -> rg ~committed:6 ~exec:8 id)) 12);
  Monitor.observe m
    (tick ~at:1.0 (Array.init 4 (fun id -> rg ~committed:6 ~exec:9 ~backlog:1 id)) 12);
  check Alcotest.int "re-armed" 2 (Monitor.alert_count m)

let test_silent_leader_fires () =
  let m = Monitor.create () in
  (* primary of view 0 is unreachable while backups hold a backlog *)
  let dead_primary ~at =
    tick ~at
      (Array.init 4 (fun id ->
           if id = 0 then rg ~reachable:false id else rg ~backlog:3 id))
      0
  in
  Monitor.observe m (dead_primary ~at:0.0);
  Monitor.observe m (dead_primary ~at:0.2);
  check Alcotest.bool "silent leader flagged" true
    (List.mem "monitor.silent_leader" (kinds m));
  (match
     List.find_opt
       (fun a ->
         match a.Monitor.a_kind with Monitor.Silent_leader _ -> true | _ -> false)
       (Monitor.alerts m)
   with
  | Some { Monitor.a_kind = Monitor.Silent_leader { view; primary; silent_for }; _ }
    ->
    check Alcotest.int "view" 0 view;
    check Alcotest.int "primary" 0 primary;
    check Alcotest.bool "silence measured" true (silent_for >= 0.15)
  | _ -> Alcotest.fail "expected a silent-leader alert");
  (* a view change re-arms the detector *)
  Monitor.observe m
    (tick ~at:0.3
       (Array.init 4 (fun id ->
            if id = 0 then rg ~reachable:false id else rg ~view:1 ~exec:1 ~committed:1 id))
       1);
  check Alcotest.int "view change observed" 1 (Monitor.view_changes m)

let test_divergent_checkpoint_fires () =
  let m = Monitor.create () in
  let split ~at =
    tick ~at
      [|
        rg ~stable:10 ~digest:"aaaa" 0;
        rg ~stable:10 ~digest:"bbbb" 1;
        rg ~stable:10 ~digest:"aaaa" 2;
        rg ~stable:10 ~digest:"aaaa" 3;
      |]
      0
  in
  Monitor.observe m (split ~at:0.0);
  check (Alcotest.list Alcotest.string) "divergence alert"
    [ "monitor.divergent_checkpoint" ] (kinds m);
  (* same divergent seqno on the next tick: reported once *)
  Monitor.observe m (split ~at:0.1);
  check Alcotest.int "deduplicated" 1 (Monitor.alert_count m)

let test_slo_breach_fires () =
  let limits =
    { Monitor.default_limits with Monitor.slo_p99 = 0.1; slo_min_samples = 10 }
  in
  let m = Monitor.create ~limits () in
  for _ = 1 to 20 do
    Monitor.observe_latency m 0.5
  done;
  Monitor.observe m (tick ~at:0.0 (Array.init 4 (fun id -> rg id)) 20);
  check (Alcotest.list Alcotest.string) "slo alert" [ "monitor.slo_breach" ]
    (kinds m);
  check Alcotest.bool "summary mentions alert" true
    (let s = Monitor.summary m in
     String.length s > 0 && Monitor.alert_count m = 1)

(* --- fleet rollup over per-group monitors -------------------------------- *)

module Rig = Bft_shard.Rig

(* Two synthetic group monitors: g0 healthy and fast, g1 stalled (one
   alert) and slow. The rollup counts g1's alert and alerting group and
   takes the worse of the two p99s. *)
let test_rollup_counts_alerts_and_worst_p99 () =
  let g0 = Monitor.create ~group:"g0/" () and g1 = Monitor.create ~group:"g1/" () in
  List.iter (Monitor.observe_latency g0) [ 0.001; 0.002; 0.003 ];
  List.iter (Monitor.observe_latency g1) [ 0.010; 0.020; 0.030 ];
  let healthy ~at = tick ~at (Array.init 4 (fun id -> rg ~exec:3 ~committed:3 id)) 3 in
  Monitor.observe g0 (healthy ~at:0.0);
  Monitor.observe g0 (healthy ~at:0.3);
  let stuck ~at ~exec =
    tick ~at (Array.init 4 (fun id -> rg ~committed:5 ~exec ~backlog:2 id)) 10
  in
  Monitor.observe g1 (stuck ~at:0.0 ~exec:5);
  Monitor.observe g1 (stuck ~at:0.3 ~exec:6);
  check Alcotest.int "g1 alerting" 1 (Monitor.alert_count g1);
  let r = Rig.health_rollup [| g0; g1 |] in
  check Alcotest.int "alerts" 1 r.Rig.ru_alerts;
  check Alcotest.int "groups alerting" 1 r.Rig.ru_groups_alerting;
  let p99 m = Stats.Sketch.p99 (Monitor.latency_sketch m) in
  check (Alcotest.float 0.0) "worst p99 is the max"
    (Float.max (p99 g0) (p99 g1))
    r.Rig.ru_worst_p99;
  check (Alcotest.float 0.0) "worst p99 is g1's" (p99 g1) r.Rig.ru_worst_p99;
  check Alcotest.string "line"
    "fleet: 1 alert in 1 group | 0 ops/s | worst p99 30.0 ms | 0 view changes \
     | checkpoint lag 6 | 0 replay drops"
    (Rig.rollup_line r)

let test_rollup_no_samples () =
  let r = Rig.health_rollup [| Monitor.create (); Monitor.create () |] in
  check Alcotest.int "no alerts" 0 r.Rig.ru_alerts;
  check Alcotest.int "no groups alerting" 0 r.Rig.ru_groups_alerting;
  check Alcotest.bool "worst p99 undefined" true (Float.is_nan r.Rig.ru_worst_p99);
  check Alcotest.string "line"
    "fleet: 0 alerts in 0 groups | 0 ops/s | worst p99 n/a | 0 view changes | \
     checkpoint lag 0 | 0 replay drops"
    (Rig.rollup_line r)

(* --- through a chaos campaign ------------------------------------------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* The overload detector distinguishes shedding-under-burst from an SLO
   breach on admitted traffic: a p99 breach while replicas are actively
   shedding raises [Overload] (degradation working as designed, operator
   should see offered load), not [Slo_breach]. *)
let test_overload_alert_when_shedding () =
  let limits =
    { Monitor.default_limits with Monitor.slo_p99 = 0.1; slo_min_samples = 10 }
  in
  let m = Monitor.create ~limits () in
  Monitor.observe m (tick ~at:0.0 (Array.init 4 (fun id -> rg id)) 0);
  for _ = 1 to 20 do
    Monitor.observe_latency m 0.5
  done;
  Monitor.observe m
    (tick ~at:0.5 ~rejected:2
       (Array.init 4 (fun id -> rg ~shed:3 ~queue:14 ~exec:10 ~committed:10 id))
       10);
  check (Alcotest.list Alcotest.string) "overload, not slo_breach"
    [ "monitor.overload" ] (kinds m);
  (match Monitor.alerts m with
  | [ { Monitor.a_kind = Monitor.Overload { shed_rate; p99; limit }; _ } ] ->
    check Alcotest.bool "shed rate positive" true (shed_rate > 0.0);
    check Alcotest.bool "p99 over limit" true (p99 > limit)
  | _ -> Alcotest.fail "expected exactly one overload alert");
  check Alcotest.int "sheds accumulated" 12 (Monitor.shed_total m);
  check Alcotest.int "rejections tracked" 2 (Monitor.rejected_total m);
  check Alcotest.int "peak queue tracked" 14 (Monitor.peak_queue m);
  check Alcotest.bool "summary mentions shedding" true
    (contains (Monitor.summary m) "shed 12 (rejected 2, peak queue 14)")

(* Shedding alone — bursts absorbed with healthy latency on admitted
   traffic — is graceful degradation, not an anomaly. *)
let test_shedding_without_breach_stays_healthy () =
  let m = Monitor.create () in
  Monitor.observe m (tick ~at:0.0 (Array.init 4 (fun id -> rg id)) 0);
  for _ = 1 to 20 do
    Monitor.observe_latency m 0.001
  done;
  Monitor.observe m (tick ~at:0.5 (Array.init 4 (fun id -> rg ~shed:5 id)) 10);
  Monitor.observe m (tick ~at:1.0 (Array.init 4 (fun id -> rg ~shed:9 id)) 20);
  check Alcotest.int "no alerts" 0 (Monitor.alert_count m);
  check Alcotest.bool "healthy" true (Monitor.healthy m);
  check Alcotest.bool "shed rate measured" true (Monitor.shed_rate m > 0.0);
  check Alcotest.int "sheds accumulated" 36 (Monitor.shed_total m)

(* The rotating-ordering suffix reports the newest tick's null fills and
   reclaims summed over replicas, and appears only when either is nonzero. *)
let test_rotate_suffix () =
  let m = Monitor.create () in
  let summary_after ~at ?(null_fill = 0) ?(reclaim = 0) () =
    Monitor.observe m
      (tick ~at
         (Array.init 4 (fun id ->
              if id = 1 then rg ~null_fill ~reclaim id else rg id))
         0);
    Monitor.summary m
  in
  let has_suffix s = contains s "rotate" in
  check Alcotest.bool "absent when both are 0" false
    (has_suffix (summary_after ~at:0.0 ()));
  check Alcotest.bool "null fills alone" true
    (contains (summary_after ~at:0.1 ~null_fill:3 ())
       "; rotate null-fill 3 reclaim 0");
  check Alcotest.bool "reclaims alone" true
    (contains (summary_after ~at:0.2 ~reclaim:2 ())
       "; rotate null-fill 0 reclaim 2");
  check Alcotest.bool "both" true
    (contains (summary_after ~at:0.3 ~null_fill:4 ~reclaim:2 ())
       "; rotate null-fill 4 reclaim 2");
  check Alcotest.bool "absent again at 0" false
    (has_suffix (summary_after ~at:0.4 ()))

let test_campaign_crashed_primary_alerts () =
  let plan = [ { Plan.at = 1.0; action = Plan.Crash 0 } ] in
  let o = Campaign.run ~seed:42 ~plan () in
  check Alcotest.bool "campaign itself passes" false (Campaign.failed o);
  check Alcotest.bool "alerts raised" true (o.Campaign.alerts <> []);
  let kinds =
    List.map (fun a -> Monitor.kind_name a.Monitor.a_kind) o.Campaign.alerts
  in
  check Alcotest.bool "typed dead-primary alert" true
    (List.mem "monitor.silent_leader" kinds
    || List.mem "monitor.stalled_commit" kinds);
  (* every alert dumped a replayable post-mortem bundle *)
  check Alcotest.bool "bundles dumped" true
    (Monitor.bundle_count o.Campaign.monitor > 0);
  (match Monitor.last_bundle o.Campaign.monitor with
  | None -> Alcotest.fail "expected a post-mortem bundle"
  | Some bundle ->
    check Alcotest.bool "postmortem header" true
      (contains bundle "\"type\":\"postmortem\"");
    check Alcotest.bool "replayable seed" true
      (contains bundle "\"campaign.seed\":\"42\"");
    check Alcotest.bool "replayable plan" true
      (contains bundle "1.000000 crash 0");
    check Alcotest.bool "alert log embedded" true
      (contains bundle "\"type\":\"alert_log\""));
  (* the outcome JSONL carries the alerts *)
  check Alcotest.bool "alerts in jsonl" true
    (contains (Campaign.jsonl o) "\"alerts\":[{")

let test_campaign_healthy_quiet () =
  let o = Campaign.run ~seed:42 ~plan:[] () in
  check Alcotest.bool "no violations" false (Campaign.failed o);
  check (Alcotest.list Alcotest.string) "zero alerts" []
    (List.map (fun a -> Monitor.kind_name a.Monitor.a_kind) o.Campaign.alerts);
  check Alcotest.bool "monitor healthy" true (Monitor.healthy o.Campaign.monitor);
  check Alcotest.int "no bundles" 0 (Monitor.bundle_count o.Campaign.monitor);
  check Alcotest.bool "slo sketch fed" true
    (Stats.Sketch.count (Monitor.latency_sketch o.Campaign.monitor) > 0)

let test_campaign_alerts_deterministic () =
  let plan = [ { Plan.at = 1.0; action = Plan.Crash 0 } ] in
  let render () =
    let o = Campaign.run ~seed:907 ~plan () in
    Monitor.alerts_json o.Campaign.alerts
  in
  let a = render () in
  check Alcotest.string "same seed, same alerts" a (render ())

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "monitor"
    [
      ( "sketch",
        [
          Alcotest.test_case "exact below five samples" `Quick
            test_sketch_exact_below_five;
          q sketch_tracks_exact_prop;
          q sketch_deterministic_prop;
          q sketch_ordered_prop;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "healthy stream stays quiet" `Quick
            test_healthy_stream_no_alerts;
          Alcotest.test_case "stalled commit, edge-triggered" `Quick
            test_stalled_commit_fires_once;
          Alcotest.test_case "silent leader" `Quick test_silent_leader_fires;
          Alcotest.test_case "divergent checkpoint" `Quick
            test_divergent_checkpoint_fires;
          Alcotest.test_case "SLO breach" `Quick test_slo_breach_fires;
          Alcotest.test_case "overload replaces SLO breach while shedding"
            `Quick test_overload_alert_when_shedding;
          Alcotest.test_case "shedding without breach stays healthy" `Quick
            test_shedding_without_breach_stays_healthy;
          Alcotest.test_case "rotate suffix only when nonzero" `Quick
            test_rotate_suffix;
        ] );
      ( "rollup",
        [
          Alcotest.test_case "alerts, groups and worst p99" `Quick
            test_rollup_counts_alerts_and_worst_p99;
          Alcotest.test_case "n/a without samples" `Quick test_rollup_no_samples;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "crashed primary raises alerts and a bundle"
            `Quick test_campaign_crashed_primary_alerts;
          Alcotest.test_case "healthy campaign raises nothing" `Quick
            test_campaign_healthy_quiet;
          Alcotest.test_case "alerts render deterministically" `Quick
            test_campaign_alerts_deterministic;
        ] );
    ]
