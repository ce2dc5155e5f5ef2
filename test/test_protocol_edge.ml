(* Edge cases of the normal-case protocol: watermark exhaustion, read-only
   fallback under concurrent writes, SRT body fetching, big batches, view
   tracking by clients, and combinations of optimizations with loss. *)

open Bft_core

let check = Alcotest.check

let test_watermark_stall_and_resume () =
  (* A log window smaller than the offered load: the primary must queue at
     the high watermark and resume as checkpoints advance, completing
     everything. *)
  let config = Config.make ~f:1 ~checkpoint_interval:4 ~log_window:8 () in
  let rig = Harness.make ~config ~nclients:10 () in
  let n = Harness.run_ops ~per_client:20 ~until:60.0 rig in
  check Alcotest.int "all complete" 200 n;
  Harness.check_agreement rig

let test_read_only_with_concurrent_writes () =
  (* Read-only ops racing writers may fail to gather 2f+1 matching replies
     and must fall back to the read-write path; every op still completes. *)
  let module Kv = Bft_services.Kv_store in
  let config = Harness.default_config () in
  let cluster =
    Cluster.create ~config ~seed:3 ~service:(fun _ -> Kv.service ()) ()
  in
  let writer = Cluster.add_client cluster in
  let readers = Array.init 3 (fun _ -> Cluster.add_client cluster) in
  let writes = ref 0 and reads = ref 0 in
  let rec write_loop k =
    if k > 0 then
      Client.invoke writer
        (Kv.op_payload (Kv.Put ("hot", string_of_int k)))
        (fun _ ->
          incr writes;
          write_loop (k - 1))
  in
  write_loop 30;
  Array.iter
    (fun reader ->
      let rec read_loop k =
        if k > 0 then
          Client.invoke reader ~read_only:true
            (Kv.op_payload (Kv.Get "hot"))
            (fun o ->
              (match Kv.result_of_payload o.Client.result with
              | Kv.Value _ -> incr reads
              | _ -> Alcotest.fail "unexpected read result");
              read_loop (k - 1))
      in
      read_loop 10)
    readers;
  Cluster.run ~until:60.0 cluster;
  check Alcotest.int "writes" 30 !writes;
  check Alcotest.int "reads" 30 !reads

let test_srt_body_arrives_after_preprepare () =
  (* Delay one backup's ingress so pre-prepares overtake the client's
     request bodies; the backup must still prepare (after fetch or late
     arrival), and everything completes. *)
  let rig = Harness.make ~nclients:4 () in
  let net = Cluster.network rig.Harness.cluster in
  Bft_net.Network.set_loss net 0.1;
  let n = Harness.run_ops ~arg:4096 ~per_client:8 ~until:60.0 rig in
  check Alcotest.int "all complete" 32 n;
  Harness.check_agreement rig

let test_large_results_under_loss () =
  let rig = Harness.make ~nclients:4 () in
  Bft_net.Network.set_loss (Cluster.network rig.Harness.cluster) 0.05;
  let n = Harness.run_ops ~res:8192 ~per_client:6 ~until:60.0 rig in
  check Alcotest.int "all complete" 24 n

let test_all_optimizations_off () =
  let config =
    Config.make ~f:1 ~digest_replies:false ~tentative_execution:false
      ~read_only_optimization:false ~batching:false
      ~separate_request_transmission:false ()
  in
  let rig = Harness.make ~config ~nclients:3 () in
  let n = Harness.run_ops ~per_client:6 rig in
  check Alcotest.int "all complete" 18 n;
  let n = Harness.run_ops ~read_only:true ~per_client:3 ~until:60.0 rig in
  check Alcotest.int "read-only as writes" 9 n;
  Harness.check_agreement rig

let test_piggyback_with_loss () =
  let config = Config.make ~f:1 ~piggyback_commits:true ~checkpoint_interval:8 ~log_window:16 () in
  let rig = Harness.make ~config ~nclients:4 () in
  let net = Cluster.network rig.Harness.cluster in
  Bft_net.Network.set_loss net 0.05;
  Bft_net.Network.set_duplication net 0.02;
  let n = Harness.run_ops ~per_client:10 ~until:90.0 rig in
  check Alcotest.int "all complete" 40 n;
  Harness.check_agreement rig

let test_f3_cluster () =
  let config = Config.make ~f:3 () in
  let rig =
    Harness.make ~config
      ~behaviors:[ (0, Behavior.Mute); (5, Behavior.Corrupt_replies); (9, Behavior.Forge_auth) ]
      ~nclients:2 ()
  in
  let n = Harness.run_ops ~per_client:5 ~until:60.0 rig in
  check Alcotest.int "10 replicas, 3 faulty, all complete" 10 n;
  Harness.check_agreement rig

let test_client_tracks_view_from_replies () =
  let rig = Harness.make ~behaviors:[ (0, Behavior.Crash_at 0.002) ] () in
  ignore (Harness.run_ops ~per_client:10 rig);
  (* a second batch of ops goes straight to the new primary: no
     retransmissions needed anymore *)
  let client = rig.Harness.clients.(0) in
  let before = Metrics.count (Client.metrics client) "ops.retransmitted" in
  let n = Harness.run_ops ~per_client:5 ~until:(Cluster.now rig.Harness.cluster +. 10.0) rig in
  check Alcotest.int "second batch" 5 n;
  (* At most the ops that designated the dead replica as replier need a
     retry (the paper's digest-replies fallback); none may need a primary
     hunt. *)
  check Alcotest.bool "only replier-fallback retransmissions" true
    (Metrics.count (Client.metrics client) "ops.retransmitted" - before <= 3)

let test_view_inflation_ignored () =
  (* Regression: the client's acceptance check once took the max view over
     all matching replies, so a single Byzantine replica replying honestly
     but reporting an absurd view would inflate the client's view estimate
     and steer every later request at a bogus primary. The accepted view
     must come from the quorum — the (f+1)-th largest among the matching
     replies — which at most f liars cannot move. *)
  let rig =
    Harness.make
      ~behaviors:[ (1, Behavior.Inflate_view 1_000_000) ]
      ~nclients:2 ()
  in
  let completed = ref 0 in
  let max_view = ref 0 in
  Array.iter
    (fun client ->
      let rec loop k =
        if k > 0 then
          Client.invoke client
            (Service.null_op ~read_only:false ~arg_size:8 ~result_size:8)
            (fun o ->
              incr completed;
              max_view := Stdlib.max !max_view o.Client.view;
              loop (k - 1))
      in
      loop 10)
    rig.Harness.clients;
  Cluster.run ~until:30.0 rig.Harness.cluster;
  check Alcotest.int "all complete" 20 !completed;
  check Alcotest.int "accepted view untouched by the liar" 0 !max_view;
  Harness.check_agreement rig

let test_duplicate_datagrams_harmless () =
  let rig = Harness.make ~nclients:3 () in
  Bft_net.Network.set_duplication (Cluster.network rig.Harness.cluster) 0.5;
  let n = Harness.run_ops ~per_client:10 rig in
  check Alcotest.int "all complete" 30 n;
  (* duplication must not double-execute *)
  List.iter
    (fun e -> check Alcotest.bool "execs bounded" true (e <= 31))
    (Harness.executed rig);
  Harness.check_agreement rig

let test_checkpoint_divergence_repair () =
  (* Manually corrupt one replica's service state mid-run: its checkpoint
     digests stop matching the quorum's; it must detect the divergence and
     repair itself via state transfer. *)
  let module Kv = Bft_services.Kv_store in
  let config = Harness.default_config ~checkpoint_interval:4 ~log_window:8 () in
  let services = Array.init 4 (fun _ -> Kv.service ()) in
  let cluster =
    Cluster.create ~config ~seed:13 ~service:(fun i -> services.(i)) ()
  in
  let client = Cluster.add_client cluster in
  Bft_sim.Engine.schedule (Cluster.engine cluster) ~delay:0.004 (fun () ->
      (* sneak a write into replica 2's state behind the protocol's back *)
      ignore (services.(2).Service.execute ~client:9999 ~op:(Kv.op_payload (Kv.Put ("evil", "x")))));
  let n = ref 0 in
  let rec loop k =
    if k > 0 then
      Client.invoke client
        (Kv.op_payload (Kv.Put (Printf.sprintf "k%d" k, "v")))
        (fun _ ->
          incr n;
          loop (k - 1))
  in
  loop 30;
  Cluster.run ~until:60.0 cluster;
  check Alcotest.int "service unaffected" 30 !n;
  let r2 = Cluster.replica cluster 2 in
  check Alcotest.bool "divergence detected" true
    (Metrics.count (Replica.metrics r2) "checkpoint.divergent" >= 1);
  check Alcotest.bool "repaired by state transfer" true
    (Metrics.count (Replica.metrics r2) "state.adopted" >= 1);
  (* after repair, replica 2 is back in lockstep *)
  check Alcotest.bool "caught up" true (Replica.last_executed r2 >= 28)

let test_two_byzantine_exceed_f_safety_preserved () =
  (* With 2 > f = 1 faulty replicas liveness may be lost, but correct
     replicas must never disagree. *)
  let rig =
    Harness.make
      ~behaviors:[ (1, Behavior.Two_faced); (2, Behavior.Corrupt_replies) ]
      ()
  in
  ignore (Harness.run_ops ~per_client:5 ~until:10.0 rig);
  Harness.check_agreement rig

(* Clients derive their MAC keys from the cluster master, exactly like
   replicas, so any client principal can authenticate a PREPARE, COMMIT or
   piggybacked commit. Only replicas may vote. With replicas 2 and 3
   crashed (beyond f = 1) nothing can commit; votes from the cluster's
   client principals must not fill the missing quorum members. [forge]
   selects the votes: [`Direct] — two principals multicast PREPARE and
   COMMIT for seq 1; [`Piggyback] — three principals piggyback a COMMIT on
   a PREPARE. *)
let non_replica_votes forge =
  let config = Config.make ~f:1 () in
  let cluster =
    Cluster.create ~config ~seed:5 ~master:"m"
      ~service:(fun _ -> Service.null ())
      ()
  in
  Cluster.crash_replica cluster 2;
  Cluster.crash_replica cluster 3;
  let engine = Cluster.engine cluster in
  (* Principals the cluster admitted as clients, so the replicas hold keys
     for them; each speaks here from a node of its own. *)
  let admitted = Array.init 4 (fun _ -> Client.id (Cluster.add_client cluster)) in
  let dsts = Harness.replica_peers cluster 2 in
  let request =
    {
      Message.client = admitted.(0);
      timestamp = 1L;
      read_only = false;
      full_replies = false;
      replier = 0;
      op = Service.null_op ~read_only:false ~arg_size:0 ~result_size:0;
    }
  in
  let client = Harness.impostor cluster admitted.(0) in
  Bft_sim.Engine.schedule engine ~delay:0.001 (fun () ->
      Transport.multicast client ~dsts (Message.Request request));
  let digest = Message.batch_digest [ Message.Full request ] in
  let prepare id = Message.Prepare { view = 0; seq = 1; digest; replica = id } in
  let commit id = { Message.view = 0; seq = 1; digest; replica = id } in
  let votes =
    match forge with
    | `None -> []
    | `Direct -> [ (admitted.(1), false); (admitted.(2), false) ]
    | `Piggyback -> [ (admitted.(1), true); (admitted.(2), true); (admitted.(3), true) ]
  in
  List.iter
    (fun (id, piggyback) ->
      let voter = Harness.impostor cluster id in
      Bft_sim.Engine.schedule engine ~delay:0.01 (fun () ->
          if piggyback then
            Transport.multicast voter ~commits:[ commit id ] ~dsts (prepare id)
          else begin
            Transport.multicast voter ~dsts (prepare id);
            Transport.multicast voter ~dsts (Message.Commit (commit id))
          end))
    votes;
  Cluster.run ~until:2.0 cluster;
  List.map (fun i -> Cluster.replica cluster i) [ 0; 1 ]

let test_non_replica_votes_ignored () =
  let committed replicas =
    List.map (fun r -> Replica.last_committed r) replicas
  in
  check Alcotest.(list int) "no forgery: nothing commits" [ 0; 0 ]
    (committed (non_replica_votes `None));
  List.iter
    (fun (label, forge) ->
      let replicas = non_replica_votes forge in
      check Alcotest.(list int) (label ^ ": nothing commits") [ 0; 0 ]
        (committed replicas);
      List.iter
        (fun r ->
          check Alcotest.bool (label ^ ": counted as not_replica") true
            (Metrics.count (Replica.metrics r) "auth.not_replica" > 0))
        replicas)
    [ ("direct", `Direct); ("piggyback", `Piggyback) ]

(* A batch may order a request whose client runs on no machine: the
   primary vouches for the request, not for its client. Here a transport
   holding replica 0's keys (the view-0 primary) proposes, at seq 1, the
   full request of principal 999, which is outside the deployment. Every
   replica executes it, its replies go nowhere, and the real client's next
   operation still completes (the real primary's cursor is still at seq 0,
   so its proposal conflicts at the backups and a view change re-homes
   the request). *)
let test_reply_to_unknown_principal () =
  let config = Config.make ~f:1 () in
  let cluster =
    Cluster.create ~config ~seed:5 ~master:"m"
      ~service:(fun _ -> Service.null ())
      ()
  in
  let client = Cluster.add_client cluster in
  let primary = Harness.impostor cluster 0 and stranger = 999 in
  let request =
    {
      Message.client = stranger;
      timestamp = 1L;
      read_only = false;
      full_replies = false;
      replier = -1;
      op = Service.null_op ~read_only:false ~arg_size:8 ~result_size:8;
    }
  in
  Bft_sim.Engine.schedule (Cluster.engine cluster) ~delay:0.001 (fun () ->
      Transport.multicast primary ~dsts:(Harness.replica_peers cluster config.Config.n)
        (Message.Pre_prepare { view = 0; seq = 1; entries = [ Message.Full request ] }));
  Cluster.run ~until:1.0 cluster;
  let replicas = Array.to_list (Cluster.replicas cluster) in
  let served r = List.exists (fun (c, _, _) -> c = stranger) (Replica.client_replies r) in
  check Alcotest.(list bool) "every replica executed the stranger's request"
    [ true; true; true; true ] (List.map served replicas);
  let completed = ref 0 in
  Client.invoke client
    (Service.null_op ~read_only:false ~arg_size:8 ~result_size:8)
    (fun _ -> incr completed);
  Cluster.run ~until:30.0 cluster;
  check Alcotest.int "the real client's operation completes" 1 !completed;
  let trails = List.map Replica.executed_digests replicas in
  check Alcotest.bool "both batches executed" true (List.length (List.hd trails) >= 2);
  check Alcotest.bool "equal trails" true (List.for_all (( = ) (List.hd trails)) trails)

let () =
  Alcotest.run "protocol-edge"
    [
      ( "edges",
        [
          Alcotest.test_case "watermark stall and resume" `Quick
            test_watermark_stall_and_resume;
          Alcotest.test_case "read-only vs concurrent writes" `Quick
            test_read_only_with_concurrent_writes;
          Alcotest.test_case "SRT body after pre-prepare" `Quick
            test_srt_body_arrives_after_preprepare;
          Alcotest.test_case "large results under loss" `Quick
            test_large_results_under_loss;
          Alcotest.test_case "all optimizations off" `Quick
            test_all_optimizations_off;
          Alcotest.test_case "piggyback with loss" `Quick test_piggyback_with_loss;
          Alcotest.test_case "f=3 with 3 faulty" `Quick test_f3_cluster;
          Alcotest.test_case "client view tracking" `Quick
            test_client_tracks_view_from_replies;
          Alcotest.test_case "view inflation ignored" `Quick
            test_view_inflation_ignored;
          Alcotest.test_case "duplicate datagrams" `Quick
            test_duplicate_datagrams_harmless;
          Alcotest.test_case "checkpoint divergence repair" `Quick
            test_checkpoint_divergence_repair;
          Alcotest.test_case "non-replica votes ignored" `Quick
            test_non_replica_votes_ignored;
          Alcotest.test_case "reply to an unknown principal" `Quick
            test_reply_to_unknown_principal;
          Alcotest.test_case "beyond f: safety preserved" `Quick
            test_two_byzantine_exceed_f_safety_preserved;
        ] );
    ]
