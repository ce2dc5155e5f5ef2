(* Liveness regression scenarios.

   Each case is a (seed, faults, network) combination that at some point
   during development exposed a distinct liveness defect. They are pinned
   here deterministically so none of those defects can return:

   - premature client retransmission when digest replies beat the full one;
   - the view-change timer firing under load merely because requests were
     pending (instead of restarting on execution progress);
   - checkpoint-digest divergence from unexecuted client-table entries;
   - the view-change ladder from stale VIEW-CHANGE records;
   - the backoff reset on NEW-VIEW installs sustaining view-change storms;
   - prepared certificates lost when NEW-VIEW carried finalized slots,
     letting a later primary reuse executed sequence numbers;
   - a digest-only reply blocking the later full reply from the same
     replica;
   - a solo view-changer laddering without 2f+1 backing, then wedging the
     only live quorum;
   - a tentatively-executed request answered from the cache not feeding
     the liveness timer, hiding a stalled commit;
   - certificates never re-formed for a replica that missed them while the
     rest of the cluster was already finalized (status retransmission). *)

open Bft_core

let check = Alcotest.check

let run ~seed ~drop ~dup ~nclients ~ops ~behaviors () =
  let config = Config.make ~f:1 ~checkpoint_interval:8 ~log_window:16 () in
  let rig = Harness.make ~config ~seed ~behaviors ~nclients () in
  let net = Cluster.network rig.Harness.cluster in
  Bft_net.Network.set_loss net drop;
  Bft_net.Network.set_duplication net dup;
  let completed = Harness.run_ops ~per_client:ops ~until:60.0 rig in
  check Alcotest.int "all operations complete" (nclients * ops) completed;
  Harness.check_agreement rig

(* Proactive recovery landing on the primary while requests are in flight:
   the rotation must not stall commitment beyond a bounded number of view
   changes (one per primary hit, plus slack for the loss-induced ones).
   The tight period makes every replica — each primary included — recover
   several times during the run. *)
let recovery_vs_view_change ~seed ~period () =
  let config = Config.make ~f:1 ~checkpoint_interval:8 ~log_window:16 () in
  let rig = Harness.make ~config ~seed ~behaviors:[] ~nclients:3 () in
  let cluster = rig.Harness.cluster in
  Bft_net.Network.set_loss (Cluster.network cluster) 0.02;
  Bft_net.Network.set_duplication (Cluster.network cluster) 0.01;
  let sched =
    Recovery_scheduler.start ~engine:(Cluster.engine cluster)
      ~replicas:(Cluster.replicas cluster) ~period
  in
  let completed = Harness.run_ops ~per_client:8 ~until:60.0 rig in
  Recovery_scheduler.stop sched;
  check Alcotest.int "all operations complete" (3 * 8) completed;
  check Alcotest.bool "recoveries actually ran" true
    (Recovery_scheduler.recoveries_started sched > 0);
  (* each replica recovers recoveries/n times; only hits on the current
     primary can force a view change, so view growth beyond that count
     (plus slack for the 2% loss) is a stall *)
  let max_view =
    Array.fold_left
      (fun acc r -> Stdlib.max acc (Replica.view r))
      0 (Cluster.replicas cluster)
  in
  let primary_hits =
    (Recovery_scheduler.recoveries_started sched + 3) / 4
  in
  if max_view > primary_hits + 2 then
    Alcotest.failf "view %d after %d primary recoveries: commitment stalled"
      max_view primary_hits;
  Harness.check_agreement rig

(* The abandonment window must scale with the same capped exponential
   backoff as the view-change retries themselves. Scenario: the primary is
   down and the two stale-view backups keep reporting Normal status in
   view 0 (that status is the abandonment evidence) but never join a view
   change, so the lone correct backup can never recruit a quorum: it is
   doomed to flap Normal <-> View_changing. With the flat window the flap
   runs at a constant rate forever (~14 abandonments in this horizon);
   with the backoff-scaled window each cycle doubles and the count stays
   low. *)
let abandonment_window_backs_off () =
  let config =
    Config.make ~f:1 ~checkpoint_interval:8 ~log_window:16
      ~view_change_timeout:0.1 ()
  in
  let rig =
    Harness.make ~config ~seed:7
      ~behaviors:[ (1, Behavior.Stale_view); (2, Behavior.Stale_view) ]
      ~nclients:1 ()
  in
  Cluster.crash_replica rig.Harness.cluster 0;
  let completed = Harness.run_ops ~per_client:1 ~until:60.0 rig in
  check Alcotest.int "nothing can commit" 0 completed;
  let abandoned = Harness.metric rig 3 "viewchange.abandoned" in
  check Alcotest.bool "the flap actually happens" true (abandoned >= 2);
  if abandoned > 10 then
    Alcotest.failf
      "%d abandoned view changes in 60s: abandonment window not scaling \
       with the retry backoff"
      abandoned

let cases =
  [
    (* mute primary + loss: cached-reply upgrade path *)
    ("mute primary, 2% loss (seed 1)", 1, 0.02, 0.01, [ (0, Behavior.Mute) ]);
    ("mute primary, 2% loss (seed 6)", 6, 0.02, 0.01, [ (0, Behavior.Mute) ]);
    (* crashed backup leaves exactly 2f+1 live: every message matters *)
    ("crashed backup, 3% loss (seed 2)", 2, 0.03, 0.02, [ (3, Behavior.Crash_at 0.01) ]);
    ("crashed backup, 3% loss (seed 4)", 4, 0.03, 0.02, [ (1, Behavior.Crash_at 0.01) ]);
    ("crashed backup, 5% loss (seed 5)", 5, 0.05, 0.03, [ (1, Behavior.Crash_at 0.01) ]);
    ("crashed backup, 8% loss (seed 8)", 8, 0.08, 0.04, [ (3, Behavior.Crash_at 0.01) ]);
    (* crashed primary: re-proposal across views *)
    ("crashed primary, 5% loss (seed 1)", 1, 0.05, 0.03, [ (0, Behavior.Crash_at 0.01) ]);
    (* forger: its view changes are rejected everywhere *)
    ("forger, 3% loss (seed 9)", 9, 0.03, 0.01, [ (2, Behavior.Forge_auth) ]);
    ("forger, 8% loss (seed 8)", 8, 0.08, 0.04, [ (3, Behavior.Forge_auth) ]);
    (* equivocator under loss *)
    ("two-faced, 5% loss (seed 1)", 1, 0.05, 0.03, [ (0, Behavior.Two_faced) ]);
    (* corrupt replies under loss *)
    ("corrupt replies, 8% loss (seed 10)", 10, 0.08, 0.04, [ (1, Behavior.Corrupt_replies) ]);
    (* plain heavy loss, no Byzantine behaviour *)
    ("no faults, 10% loss (seed 42)", 42, 0.10, 0.05, []);
  ]

let () =
  Alcotest.run "liveness-regressions"
    [
      ( "scenarios",
        List.map
          (fun (name, seed, drop, dup, behaviors) ->
            Alcotest.test_case name `Slow
              (run ~seed ~drop ~dup ~nclients:3 ~ops:8 ~behaviors))
          cases );
      ( "backoff",
        [
          Alcotest.test_case "abandonment window scales with retry backoff"
            `Slow abandonment_window_backs_off;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "proactive recovery vs view changes (seed 3)" `Slow
            (recovery_vs_view_change ~seed:3 ~period:1.0);
          Alcotest.test_case "proactive recovery vs view changes (seed 11)" `Slow
            (recovery_vs_view_change ~seed:11 ~period:0.5);
        ] );
    ]
