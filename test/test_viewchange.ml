(* View changes, state transfer and proactive recovery. *)

open Bft_core

let check = Alcotest.check

let test_crashed_primary_replaced () =
  let rig = Harness.make ~behaviors:[ (0, Behavior.Crash_at 0.002) ] () in
  let n = Harness.run_ops ~per_client:15 rig in
  check Alcotest.int "all complete" 15 n;
  (* the three live replicas moved to view 1 whose primary is replica 1 *)
  List.iteri
    (fun i v -> if i > 0 then check Alcotest.int "view 1" 1 v)
    (Harness.views rig);
  Harness.check_agreement rig

let test_mute_primary_replaced () =
  let rig = Harness.make ~behaviors:[ (0, Behavior.Mute) ] () in
  let n = Harness.run_ops ~per_client:10 rig in
  check Alcotest.int "all complete" 10 n;
  check Alcotest.bool "view changed" true (List.nth (Harness.views rig) 1 >= 1);
  Harness.check_agreement rig

let test_two_faced_primary_detected () =
  let rig = Harness.make ~behaviors:[ (0, Behavior.Two_faced) ] () in
  let n = Harness.run_ops ~per_client:12 rig in
  check Alcotest.int "all complete" 12 n;
  check Alcotest.bool "equivocation led to view change" true
    (List.nth (Harness.views rig) 1 >= 1);
  Harness.check_agreement rig

let test_cascading_crashes_f2 () =
  let config = Harness.default_config ~f:2 () in
  let rig =
    Harness.make ~config
      ~behaviors:[ (0, Behavior.Crash_at 0.002); (1, Behavior.Crash_at 0.05) ]
      ()
  in
  let n = Harness.run_ops ~per_client:15 ~until:60.0 rig in
  check Alcotest.int "all complete" 15 n;
  (* both faulty primaries were skipped: view at least 2 *)
  check Alcotest.bool "view >= 2" true (List.nth (Harness.views rig) 3 >= 2);
  Harness.check_agreement rig

let test_work_survives_view_change () =
  (* Requests in flight when the primary dies are not lost and not doubled:
     every client op completes exactly once. *)
  let rig = Harness.make ~nclients:10 ~behaviors:[ (0, Behavior.Crash_at 0.003) ] () in
  let n = Harness.run_ops ~per_client:10 ~until:60.0 rig in
  check Alcotest.int "exactly once" 100 n;
  Harness.check_agreement rig

let test_view_change_with_checkpoint_gc () =
  (* Force view changes after checkpoints have truncated the log: prepared
     certificates below the stable checkpoint must not resurface. *)
  let config = Harness.default_config ~checkpoint_interval:4 ~log_window:8 () in
  let rig = Harness.make ~config ~behaviors:[ (0, Behavior.Crash_at 0.01) ] () in
  let n = Harness.run_ops ~per_client:30 ~until:60.0 rig in
  check Alcotest.int "all complete" 30 n;
  Harness.check_agreement rig

let test_stale_view_replica_left_behind () =
  let rig =
    Harness.make
      ~behaviors:[ (0, Behavior.Crash_at 0.002); (2, Behavior.Stale_view) ]
      ()
  in
  (* With the primary dead and one replica refusing to change views, the
     remaining two can still not be outvoted... they cannot complete a view
     change (only 2 < 2f+1 = 3 participants), so liveness is lost — exactly
     the f-bound. Run a few ops before the crash to check safety holds. *)
  let n = Harness.run_ops ~per_client:3 ~until:5.0 rig in
  ignore n;
  Harness.check_agreement rig

let test_state_transfer_catches_up_lagging_replica () =
  let config = Harness.default_config ~checkpoint_interval:4 ~log_window:8 () in
  let rig = Harness.make ~config () in
  (* Partition replica 3 away for a while. *)
  let net = Cluster.network rig.Harness.cluster in
  Bft_net.Network.install_partition net ~groups:[ [ 3 ]; [ 0; 1; 2; 4 ] ];
  let healed = ref false in
  Bft_sim.Engine.schedule (Cluster.engine rig.Harness.cluster) ~delay:0.05
    (fun () ->
      healed := true;
      Bft_net.Network.heal_partition net);
  let n = Harness.run_ops ~per_client:40 ~until:60.0 rig in
  check Alcotest.int "all complete" 40 n;
  check Alcotest.bool "healed" true !healed;
  (* replica 3 caught up via state transfer or replay *)
  let r3 = Cluster.replica rig.Harness.cluster 3 in
  check Alcotest.bool "replica 3 caught up" true (Replica.last_executed r3 >= 36);
  Harness.check_agreement rig

let test_proactive_recovery () =
  let config = Harness.default_config ~checkpoint_interval:4 ~log_window:8 () in
  let rig = Harness.make ~config () in
  Bft_sim.Engine.schedule (Cluster.engine rig.Harness.cluster) ~delay:0.01
    (fun () -> Replica.start_recovery (Cluster.replica rig.Harness.cluster 2));
  let n = Harness.run_ops ~per_client:30 ~until:60.0 rig in
  check Alcotest.int "service uninterrupted" 30 n;
  check Alcotest.int "recovery completed" 1
    (Harness.metric rig 2 "recovery.completed");
  Harness.check_agreement rig

let test_recovery_refreshes_epoch () =
  let rig = Harness.make () in
  ignore (Harness.run_ops ~per_client:2 rig);
  let r1 = Cluster.replica rig.Harness.cluster 1 in
  Replica.start_recovery r1;
  (* [until] is absolute virtual time, so extend past the current clock *)
  Cluster.run ~until:(Cluster.now rig.Harness.cluster +. 10.0) rig.Harness.cluster;
  check Alcotest.int "recovery completed" 1
    (Harness.metric rig 1 "recovery.completed");
  (* all other replicas observed the new-key broadcast: sending to replica 1
     under the old epoch would now fail, so ops must still complete *)
  let n =
    Harness.run_ops ~per_client:3
      ~until:(Cluster.now rig.Harness.cluster +. 20.0)
      rig
  in
  check Alcotest.int "post-recovery ops" 3 n

let test_client_follows_new_primary () =
  let rig = Harness.make ~behaviors:[ (0, Behavior.Crash_at 0.002) ] () in
  ignore (Harness.run_ops ~per_client:10 rig);
  (* after the run, a fresh op should complete quickly: the client knows the
     new primary from the reply views (no timeout detour) *)
  let t0 = Cluster.now rig.Harness.cluster in
  let latency = ref infinity in
  Client.invoke rig.Harness.clients.(0)
    (Service.null_op ~read_only:false ~arg_size:8 ~result_size:8)
    (fun o -> latency := o.Client.latency);
  Cluster.run ~until:(t0 +. 5.0) rig.Harness.cluster;
  check Alcotest.bool "no timeout detour" true (!latency < 0.05)

let test_exponential_backoff_counts () =
  (* With everything but one backup crashed, view changes stall and back
     off; the stalled counter must grow but not explode. *)
  let rig =
    Harness.make
      ~behaviors:
        [ (0, Behavior.Crash_at 0.00005); (1, Behavior.Crash_at 0.00005) ]
      ()
  in
  ignore (Harness.run_ops ~per_client:1 ~until:10.0 rig);
  let starts = Harness.metric rig 2 "viewchange.started" in
  check Alcotest.bool "some view changes attempted" true (starts >= 1);
  check Alcotest.bool "backoff bounded the attempts" true (starts < 20)

let test_rollback_never_misses_a_slot () =
  (* Stress the tentative-rollback walk against checkpoint GC:
     [rollback_tentative] asserts that every executed-but-uncommitted slot
     is still in the log (GC only advances past finalized slots, so the
     None branch is unreachable). The block delay below is tuned so the
     partition catches replica 3 inside the prepared-but-uncommitted
     window of a slot — it has tentatively executed a batch whose commits
     never arrive — under the most aggressive checkpointing the validator
     allows; the assert aborting or a safety violation fails the test. *)
  let config =
    Config.make ~f:1 ~checkpoint_interval:2 ~log_window:8 ()
  in
  let rig = Harness.make ~config ~seed:13 ~nclients:3 () in
  let cluster = rig.Harness.cluster in
  let engine = Cluster.engine cluster in
  let net = Cluster.network cluster in
  (* Mid-stream, cut replica 3 off from its peers (client links stay up):
     slots whose prepares already arrived execute tentatively but their
     commits never do, and the retransmission-fed waiting set forces a
     view change that must roll all of them back. The rest of the cluster
     keeps checkpointing past those seqs meanwhile. Unblock later so 3
     state-transfers back in and every op still completes. *)
  Bft_sim.Engine.schedule engine ~delay:0.0104 (fun () ->
      Bft_net.Network.install_partition net ~groups:[ [ 0; 1; 2 ]; [ 3 ] ]);
  Bft_sim.Engine.schedule engine ~delay:2.0 (fun () ->
      Bft_net.Network.heal_partition net);
  let n = Harness.run_ops ~per_client:50 ~until:60.0 rig in
  check Alcotest.int "all complete" (3 * 50) n;
  check Alcotest.bool "tentative rollback exercised" true
    (Harness.sum_metric rig "exec.rolled_back" > 0);
  Harness.check_agreement rig

let test_hierarchical_state_transfer () =
  (* Big per-op state so snapshots exceed the paging threshold: the lagging
     replica must fetch pages rather than whole snapshots. *)
  let module Kv = Bft_services.Kv_store in
  let config = Harness.default_config ~checkpoint_interval:4 ~log_window:8 () in
  let services = Array.init 4 (fun _ -> Kv.service ()) in
  let cluster =
    Cluster.create ~config ~seed:5 ~service:(fun i -> services.(i)) ()
  in
  let client = Cluster.add_client cluster in
  let net = Cluster.network cluster in
  Bft_net.Network.install_partition net ~groups:[ [ 3 ]; [ 0; 1; 2; 4 ] ];
  Bft_sim.Engine.schedule (Cluster.engine cluster) ~delay:0.5 (fun () ->
      Bft_net.Network.heal_partition net);
  let big = String.make 3000 'v' in
  let n = ref 0 in
  let rec loop k =
    if k > 0 then
      Client.invoke client
        (Kv.op_payload (Kv.Put (Printf.sprintf "key%03d" k, big)))
        (fun _ ->
          incr n;
          loop (k - 1))
  in
  loop 30;
  Cluster.run ~until:60.0 cluster;
  Alcotest.(check int) "all writes" 30 !n;
  let r3 = Cluster.replica cluster 3 in
  Alcotest.(check bool) "pages were fetched" true
    (Harness.metric { Harness.cluster; clients = [| client |]; results = [] } 3
       "state.pages_fetched"
    > 0);
  Alcotest.(check bool) "no corrupt pages accepted" true
    (Metrics.count (Replica.metrics r3) "state.page_rejected" = 0);
  Alcotest.(check bool) "replica 3 caught up" true (Replica.last_executed r3 >= 28)

let test_restart_restores_captured_checkpoint () =
  (* Checkpoint snapshots are captured when the checkpoint is taken and
     encoded only when something forces them. A restart forces the stable
     one after later writes have moved the store on: it must bring back the
     checkpoint's state, not the current one. The other replicas force
     theirs just as late to serve the state transfer. *)
  let module Kv = Bft_services.Kv_store in
  let config = Harness.default_config ~checkpoint_interval:4 ~log_window:8 () in
  let stores = Array.init 4 (fun _ -> Kv.create_store ()) in
  let services = Array.map Kv.service_of_store stores in
  let cluster = Cluster.create ~config ~seed:5 ~service:(fun i -> services.(i)) () in
  let client = Cluster.add_client cluster in
  let writes ops ~until =
    let rec loop = function
      | [] -> ()
      | op :: rest -> Client.invoke client (Kv.op_payload op) (fun _ -> loop rest)
    in
    loop ops;
    Cluster.run ~until cluster
  in
  let key k = Printf.sprintf "key%02d" k in
  let keys = List.init 21 key in
  let values store = List.map (Kv.store_find store) keys in
  (* 20 x 3 KB: well past the 4 pages a snapshot may ship whole *)
  writes (List.init 20 (fun k -> Kv.Put (key k, String.make 3000 'a'))) ~until:20.0;
  let r3 = Cluster.replica cluster 3 in
  let stable = Replica.last_stable r3 in
  check Alcotest.int "stable checkpoint covers the first writes" stable
    (Replica.last_executed r3);
  let at_checkpoint = values stores.(3) in
  let digest_at_checkpoint = services.(3).Service.state_digest () in
  (* Small enough to ride inline in the pre-prepare: a restarted replica
     has lost the bodies of summarized requests. *)
  writes [ Kv.Put (key 0, "b"); Kv.Delete (key 1); Kv.Put (key 20, "c") ] ~until:30.0;
  check Alcotest.int "no checkpoint since" stable (Replica.last_stable r3);
  check Alcotest.bool "later writes executed" true (Replica.last_executed r3 > stable);
  let latest = values stores.(0) in
  Cluster.restart_replica cluster 3;
  let bindings = Alcotest.(list (option string)) in
  check bindings "restart restores the checkpoint's bindings" at_checkpoint
    (values stores.(3));
  check Alcotest.bool "and its digest" true
    (Bft_crypto.Fingerprint.equal digest_at_checkpoint
       (services.(3).Service.state_digest ()));
  Cluster.run ~until:60.0 cluster;
  check Alcotest.int "caught up"
    (Replica.last_executed (Cluster.replica cluster 0))
    (Replica.last_executed r3);
  check bindings "with the later writes" latest (values stores.(3));
  check Alcotest.int "no state digest mismatch" 0
    (Metrics.count (Replica.metrics r3) "state.digest_mismatch");
  Array.iter
    (fun svc ->
      check Alcotest.bool "quorum's state digest" true
        (Bft_crypto.Fingerprint.equal
           (services.(0).Service.state_digest ())
           (svc.Service.state_digest ())))
    services

let test_status_heals_idle_straggler () =
  (* A replica partitioned briefly misses commits; nobody is under load
     afterwards, so only the status subsystem can heal it. *)
  let rig = Harness.make () in
  let net = Cluster.network rig.Harness.cluster in
  (* cut replica 2 off from its peers for a moment *)
  Bft_net.Network.install_partition net ~groups:[ [ 0; 1; 3 ]; [ 2 ] ];
  let n = ref 0 in
  let rec loop k =
    if k > 0 then
      Client.invoke rig.Harness.clients.(0)
        (Service.null_op ~read_only:false ~arg_size:8 ~result_size:8)
        (fun _ ->
          incr n;
          loop (k - 1))
  in
  loop 5;
  Cluster.run ~until:0.5 rig.Harness.cluster;
  Bft_net.Network.heal_partition net;
  Cluster.run ~until:10.0 rig.Harness.cluster;
  Alcotest.(check int) "ops done" 5 !n;
  (* replica 2 converges without any further client traffic *)
  Alcotest.(check bool) "straggler healed" true
    (Replica.last_committed (Cluster.replica rig.Harness.cluster 2) >= 5)

(* --- replica-internal pins ------------------------------------------------

   The client-visible goldens cannot tell which internal path a replica
   took. These scenarios each drive one body-, view- or state-handling
   path and pin every replica's [Replica.dump] (slot table plus every
   counter and histogram) byte for byte. *)

let dump_section buf name cluster =
  Printf.bprintf buf "== %s\n" name;
  Array.iter
    (fun r -> Buffer.add_string buf (Replica.dump r))
    (Cluster.replicas cluster)

(* 3 KB writes travel separately from their pre-prepare; 5% loss makes
   bodies arrive after it, trigger [Fetch_batch] and status resends. *)
let lossy_separate_bodies () =
  let rig = Harness.make ~nclients:2 () in
  Bft_net.Network.set_loss (Cluster.network rig.Harness.cluster) 0.05;
  ignore (Harness.run_ops ~arg:3072 ~per_client:12 ~until:60.0 rig);
  rig.Harness.cluster

let primary_crash_view_change () =
  let rig =
    Harness.make ~nclients:2 ~behaviors:[ (0, Behavior.Crash_at 0.003) ] ()
  in
  ignore (Harness.run_ops ~per_client:10 ~until:60.0 rig);
  rig.Harness.cluster

(* Replica 3 is down while the others pass a checkpoint, then reboots from
   its own: recovery must fetch the newer state. *)
let backup_restart () =
  let config = Harness.default_config ~checkpoint_interval:4 ~log_window:8 () in
  let rig = Harness.make ~config () in
  let cluster = rig.Harness.cluster in
  ignore (Harness.run_ops ~per_client:6 ~until:5.0 rig);
  Cluster.crash_replica cluster 3;
  ignore (Harness.run_ops ~per_client:6 ~until:10.0 rig);
  Cluster.restart_replica cluster 3;
  ignore (Harness.run_ops ~per_client:6 ~until:30.0 rig);
  cluster

(* Replica 2 owns epochs but crashes mid-run: ordered pre-prepares hand
   epochs off, the view primary reclaims its slots with null batches. *)
let rotating_owner_crash () =
  let config =
    Config.make ~f:1 ~checkpoint_interval:8 ~log_window:32
      ~ordering:(Config.Rotating { epoch_length = 2 })
      ()
  in
  let rig = Harness.make ~config ~nclients:4 () in
  let cluster = rig.Harness.cluster in
  Bft_sim.Engine.schedule (Cluster.engine cluster) ~delay:0.004 (fun () ->
      Cluster.crash_replica cluster 2);
  ignore (Harness.run_ops ~per_client:20 ~until:60.0 rig);
  cluster

(* Replica 3 misses a checkpoint whose snapshot is past the 4 pages a
   STATE may carry whole, so after its restart it fetches pages. *)
let kv_restart_page_fetch () =
  let module Kv = Bft_services.Kv_store in
  let config = Harness.default_config ~checkpoint_interval:4 ~log_window:8 () in
  let cluster =
    Cluster.create ~config ~seed:5 ~service:(fun _ -> Kv.service ()) ()
  in
  let client = Cluster.add_client cluster in
  let writes ops ~until =
    let rec loop = function
      | [] -> ()
      | op :: rest -> Client.invoke client (Kv.op_payload op) (fun _ -> loop rest)
    in
    loop ops;
    Cluster.run ~until cluster
  in
  let key k = Printf.sprintf "key%02d" k in
  writes (List.init 20 (fun k -> Kv.Put (key k, String.make 3000 'a'))) ~until:20.0;
  Cluster.crash_replica cluster 3;
  writes
    [ Kv.Put (key 0, "b"); Kv.Delete (key 1); Kv.Put (key 20, "c"); Kv.Put (key 21, "d") ]
    ~until:30.0;
  Cluster.restart_replica cluster 3;
  Cluster.run ~until:60.0 cluster;
  cluster

let replica_dumps () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, scenario) -> dump_section buf name (scenario ()))
    [
      ("3 KB separate bodies, 5% loss", lossy_separate_bodies);
      ("primary crash, view change", primary_crash_view_change);
      ("backup restart", backup_restart);
      ("rotating, epoch owner crash", rotating_owner_crash);
      ("KV restart, page fetch", kv_restart_page_fetch);
    ];
  Buffer.contents buf

let test_replica_dumps_pinned () =
  let golden =
    In_channel.with_open_bin "golden/replica_dumps.txt" In_channel.input_all
  in
  check Alcotest.string "matches golden/replica_dumps.txt" golden
    (replica_dumps ())

let () =
  Alcotest.run "viewchange"
    [
      ( "view changes",
        [
          Alcotest.test_case "crashed primary replaced" `Quick
            test_crashed_primary_replaced;
          Alcotest.test_case "mute primary replaced" `Quick
            test_mute_primary_replaced;
          Alcotest.test_case "two-faced primary detected" `Quick
            test_two_faced_primary_detected;
          Alcotest.test_case "cascading crashes (f=2)" `Quick
            test_cascading_crashes_f2;
          Alcotest.test_case "work survives view change" `Quick
            test_work_survives_view_change;
          Alcotest.test_case "view change after gc" `Quick
            test_view_change_with_checkpoint_gc;
          Alcotest.test_case "stale-view replica: safety holds" `Quick
            test_stale_view_replica_left_behind;
          Alcotest.test_case "client follows new primary" `Quick
            test_client_follows_new_primary;
          Alcotest.test_case "rollback never misses a slot" `Quick
            test_rollback_never_misses_a_slot;
          Alcotest.test_case "backoff bounds attempts" `Quick
            test_exponential_backoff_counts;
        ] );
      ( "state transfer",
        [
          Alcotest.test_case "lagging replica catches up" `Quick
            test_state_transfer_catches_up_lagging_replica;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "proactive recovery" `Quick test_proactive_recovery;
          Alcotest.test_case "epoch refresh" `Quick test_recovery_refreshes_epoch;
        ] );
      ( "catch-up",
        [
          Alcotest.test_case "hierarchical state transfer" `Quick
            test_hierarchical_state_transfer;
          Alcotest.test_case "restart forces its checkpoint" `Quick
            test_restart_restores_captured_checkpoint;
          Alcotest.test_case "status heals idle straggler" `Quick
            test_status_heals_idle_straggler;
        ] );
      ( "replica internals",
        [
          Alcotest.test_case "dumps match golden" `Quick
            test_replica_dumps_pinned;
        ] );
    ]
