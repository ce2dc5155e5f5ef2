(* Integration tests of the normal-case protocol: commit flow, replies,
   optimizations, batching, separate request transmission, checkpoints,
   garbage collection, duplicate suppression. *)

open Bft_core

let check = Alcotest.check

let test_basic_commit_flow () =
  let rig = Harness.make () in
  let n = Harness.run_ops ~per_client:5 rig in
  check Alcotest.int "all ops complete" 5 n;
  check (Alcotest.list Alcotest.int) "all executed" [ 5; 5; 5; 5 ]
    (Harness.executed rig);
  check (Alcotest.list Alcotest.int) "view 0" [ 0; 0; 0; 0 ] (Harness.views rig);
  Harness.check_agreement rig

(* A client's counters live in a fixed array; [Client.metrics] names the
   non-zero ones, so summing its counters reads what the array holds. *)
let test_client_counters () =
  let rig = Harness.make () in
  let client = rig.Harness.clients.(0) in
  check Alcotest.(list (pair string int)) "nothing counted yet" []
    (Metrics.counters (Client.metrics client));
  ignore (Harness.run_ops ~per_client:3 rig : int);
  check Alcotest.int "started" 3 (Client.count client Client.Started);
  check Alcotest.int "completed" 3 (Client.count client Client.Completed);
  check Alcotest.(list (pair string int)) "metrics: the non-zero counters"
    (List.filter
       (fun (_, v) -> v > 0)
       [
         ("ops.completed", 3);
         ("ops.retransmitted", Client.count client Client.Retransmitted);
         ("ops.started", 3);
         ("reply.stale", Client.count client Client.Reply_stale);
       ])
    (Metrics.counters (Client.metrics client))

let test_result_payload_size () =
  let rig = Harness.make () in
  let client = rig.Harness.clients.(0) in
  let got = ref (-1) in
  Client.invoke client
    (Service.null_op ~read_only:false ~arg_size:100 ~result_size:2048)
    (fun outcome -> got := Payload.size outcome.Client.result);
  Cluster.run ~until:5.0 rig.Harness.cluster;
  check Alcotest.int "result size" 2048 !got

let test_read_only_no_sequence () =
  let rig = Harness.make () in
  let n = Harness.run_ops ~read_only:true ~per_client:7 rig in
  check Alcotest.int "all complete" 7 n;
  (* Read-only ops never consume sequence numbers. *)
  check (Alcotest.list Alcotest.int) "nothing ordered" [ 0; 0; 0; 0 ]
    (Harness.executed rig);
  check Alcotest.bool "executed via RO path" true
    (Harness.metric rig 0 "exec.read_only" >= 7)

let test_read_only_opt_disabled () =
  let config = Config.make ~f:1 ~read_only_optimization:false () in
  let rig = Harness.make ~config () in
  let n = Harness.run_ops ~read_only:true ~per_client:4 rig in
  check Alcotest.int "all complete" 4 n;
  check Alcotest.bool "ordered like writes" true
    (List.for_all (fun e -> e = 4) (Harness.executed rig))

let test_client_one_outstanding () =
  let rig = Harness.make () in
  let client = rig.Harness.clients.(0) in
  Client.invoke client (Service.null_op ~read_only:false ~arg_size:8 ~result_size:8)
    (fun _ -> ());
  check Alcotest.bool "busy" true (Client.busy client);
  Alcotest.check_raises "second invoke rejected"
    (Invalid_argument "Client.invoke: operation already outstanding") (fun () ->
      Client.invoke client (Service.null_op ~read_only:false ~arg_size:8 ~result_size:8)
        (fun _ -> ()))

let test_duplicate_request_resends_cached_reply () =
  (* With a lossy network the client retransmits; replicas must answer
     duplicates from the reply cache, not re-execute. *)
  let rig = Harness.make () in
  let net = Cluster.network rig.Harness.cluster in
  Bft_net.Network.set_loss net 0.08;
  Bft_net.Network.set_duplication net 0.05;
  let n = Harness.run_ops ~per_client:12 ~until:60.0 rig in
  check Alcotest.int "all ops complete despite loss" 12 n;
  Harness.check_agreement rig;
  (* exactly-once: replicas never execute more batches than client ops plus
     the null fillers view changes may insert *)
  List.iter (fun e -> check Alcotest.bool "no double execution" true (e <= 14))
    (Harness.executed rig)

let test_batching_under_concurrency () =
  let rig = Harness.make ~nclients:20 () in
  let n = Harness.run_ops ~per_client:10 rig in
  check Alcotest.int "all complete" 200 n;
  let batches = Harness.metric rig 0 "batch.sent" in
  check Alcotest.bool "fewer batches than requests" true (batches < 200);
  check Alcotest.bool "batches formed" true (batches > 0);
  Harness.check_agreement rig

let test_no_batching_one_per_request () =
  let config = Config.make ~f:1 ~batching:false () in
  let rig = Harness.make ~config ~nclients:5 () in
  let n = Harness.run_ops ~per_client:4 rig in
  check Alcotest.int "all complete" 20 n;
  check Alcotest.int "one pre-prepare per request" 20
    (Harness.metric rig 0 "preprepare.sent")

let test_separate_request_transmission () =
  let rig = Harness.make () in
  let n = Harness.run_ops ~arg:4096 ~per_client:6 rig in
  check Alcotest.int "all complete" 6 n;
  (* backups received the big requests directly from the client multicast *)
  check Alcotest.bool "backups got requests" true
    (Harness.metric rig 1 "recv.request" >= 6);
  Harness.check_agreement rig

let test_inline_when_srt_disabled () =
  let config = Config.make ~f:1 ~separate_request_transmission:false () in
  let rig = Harness.make ~config () in
  let n = Harness.run_ops ~arg:4096 ~per_client:6 rig in
  check Alcotest.int "all complete" 6 n;
  (* without SRT the client sends only to the primary *)
  check Alcotest.int "backups saw no requests" 0 (Harness.metric rig 1 "recv.request")

let test_checkpoint_stability_and_gc () =
  let config = Config.make ~f:1 ~checkpoint_interval:4 ~log_window:8 () in
  let rig = Harness.make ~config () in
  let n = Harness.run_ops ~per_client:20 rig in
  check Alcotest.int "all complete" 20 n;
  Array.iter
    (fun r ->
      check Alcotest.bool "stable checkpoint advanced" true
        (Replica.last_stable r >= 16))
    (Cluster.replicas rig.Harness.cluster)

let test_tentative_vs_final_execution () =
  let rig = Harness.make () in
  ignore (Harness.run_ops ~per_client:5 rig);
  check Alcotest.bool "tentative used" true (Harness.metric rig 0 "exec.tentative" > 0);
  let config = Config.make ~f:1 ~tentative_execution:false () in
  let rig2 = Harness.make ~config () in
  ignore (Harness.run_ops ~per_client:5 rig2);
  check Alcotest.int "no tentative" 0 (Harness.metric rig2 0 "exec.tentative");
  check Alcotest.bool "final only" true (Harness.metric rig2 0 "exec.final" >= 5)

let test_piggybacked_commits () =
  let config = Config.make ~f:1 ~piggyback_commits:true () in
  let rig = Harness.make ~config ~nclients:4 () in
  let n = Harness.run_ops ~per_client:10 rig in
  check Alcotest.int "all complete" 40 n;
  check Alcotest.bool "commits rode other messages" true
    (Harness.sum_metric rig "piggy.received" > 0);
  Harness.check_agreement rig

let test_f2_cluster () =
  let config = Config.make ~f:2 () in
  let rig = Harness.make ~config ~nclients:3 () in
  let n = Harness.run_ops ~per_client:5 rig in
  check Alcotest.int "all complete" 15 n;
  check Alcotest.int "seven replicas" 7
    (Array.length (Cluster.replicas rig.Harness.cluster));
  Harness.check_agreement rig

let test_corrupt_replies_tolerated () =
  let rig = Harness.make ~behaviors:[ (1, Behavior.Corrupt_replies) ] () in
  let got = ref Payload.empty in
  Client.invoke rig.Harness.clients.(0)
    (Service.null_op ~read_only:false ~arg_size:8 ~result_size:64)
    (fun o -> got := o.Client.result);
  Cluster.run ~until:10.0 rig.Harness.cluster;
  check Alcotest.int "correct result size" 64 (Payload.size !got);
  check Alcotest.bool "not the corrupted payload" true
    (String.length !got.Payload.data = 0)

let test_forged_auth_rejected () =
  let rig = Harness.make ~behaviors:[ (2, Behavior.Forge_auth) ] () in
  let n = Harness.run_ops ~per_client:8 rig in
  check Alcotest.int "all complete" 8 n;
  (* everyone discards the forger's messages *)
  check Alcotest.bool "auth failures counted" true
    (Harness.metric rig 0 "auth.failed" > 0)

let test_replayed_datagrams_dropped () =
  (* A faulty replica re-injects authenticated datagrams verbatim. The MAC
     vectors still verify for their original targets, so only the nonce
     window stands between the replay and re-processing: every replay must
     be dropped at the transport while first deliveries keep flowing. *)
  let rig = Harness.make ~seed:11 ~behaviors:[ (2, Behavior.Replay) ] () in
  let n = Harness.run_ops ~per_client:10 rig in
  check Alcotest.int "all complete" 10 n;
  check Alcotest.bool "replays were injected" true
    (Harness.sum_metric rig "replay.injected" > 0);
  check Alcotest.bool "replays dropped at the transport" true
    (Harness.sum_metric rig "auth.replay_dropped" > 0);
  (* Replays re-injected at replicas outside the original target set fail
     the MAC check instead; for the original targets the nonce window is
     what catches them, counted separately above. *)
  Harness.check_agreement rig

let test_mute_backup_tolerated () =
  let rig = Harness.make ~behaviors:[ (3, Behavior.Mute) ] () in
  let n = Harness.run_ops ~per_client:10 rig in
  check Alcotest.int "all complete" 10 n;
  check (Alcotest.list Alcotest.int) "no view change needed" [ 0; 0; 0; 0 ]
    (Harness.views rig)

let test_slow_replica_tolerated () =
  let rig = Harness.make ~behaviors:[ (2, Behavior.Slow 0.002) ] () in
  let n = Harness.run_ops ~per_client:10 rig in
  check Alcotest.int "all complete" 10 n;
  Harness.check_agreement rig

let test_kv_service_replication () =
  let module Kv = Bft_services.Kv_store in
  let rig = Harness.make ~service:(fun _ -> Kv.service ()) () in
  let client = rig.Harness.clients.(0) in
  let results = ref [] in
  let ops =
    [
      Kv.Put ("a", "1");
      Kv.Put ("b", "2");
      Kv.Get "a";
      Kv.Cas { key = "a"; expected = Some "1"; update = "3" };
      Kv.Get "a";
      Kv.Delete "b";
      Kv.Get "b";
    ]
  in
  let rec play = function
    | [] -> ()
    | op :: rest ->
      Client.invoke client
        ~read_only:(Kv.is_read_only_op op)
        (Kv.op_payload op)
        (fun o ->
          results := Kv.result_of_payload o.Client.result :: !results;
          play rest)
  in
  play ops;
  Cluster.run ~until:10.0 rig.Harness.cluster;
  match List.rev !results with
  | [ Kv.Stored; Kv.Stored; Kv.Value (Some "1"); Kv.Cas_result true;
      Kv.Value (Some "3"); Kv.Stored; Kv.Value None ] ->
    ()
  | rs -> Alcotest.failf "unexpected results (%d)" (List.length rs)

let test_state_digests_converge () =
  let module Kv = Bft_services.Kv_store in
  let services = Array.init 4 (fun _ -> Kv.service ()) in
  let rig = Harness.make ~service:(fun i -> services.(i)) ~nclients:4 () in
  ignore (Harness.run_ops ~per_client:5 rig);
  (* run_ops used null ops through the kv service: they decode as errors but
     deterministically, so states must still agree. *)
  let digests =
    Array.to_list services |> List.map (fun s -> s.Service.state_digest ())
  in
  match digests with
  | d :: rest ->
    List.iter
      (fun d' ->
        check Alcotest.bool "digest equal" true (Bft_crypto.Fingerprint.equal d d'))
      rest
  | [] -> ()

(* Bounded memory: once a batch commits, nothing of its requests may stay
   behind but the per-slot audit digest. 16 closed-loop clients against a
   null service, heap compacted and measured at 0.3 s and 1.0 s of virtual
   time: the live heap may grow by only a few words per completed
   operation. Inline request bodies ([Message.Full] entries) used to pile
   up in the request store at ~90 words per op. *)
let test_heap_bounded_per_op () =
  let cluster =
    Cluster.create ~config:(Config.make ~f:1 ())
      ~service:(fun _ -> Service.null ()) ()
  in
  let op = Service.null_op ~read_only:false ~arg_size:0 ~result_size:0 in
  let clients = List.init 16 (fun _ -> Cluster.add_client cluster) in
  List.iter
    (fun c ->
      let rec loop () = Client.invoke c op (fun _ -> loop ()) in
      loop ())
    clients;
  let completed () =
    List.fold_left
      (fun acc c -> acc + Metrics.count (Client.metrics c) "ops.completed")
      0 clients
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  Cluster.run ~until:0.3 cluster;
  let ops0 = completed () and words0 = live_words () in
  Cluster.run ~until:1.0 cluster;
  let ops1 = completed () and words1 = live_words () in
  (* Keep the cluster reachable through the last measurement. *)
  ignore (Sys.opaque_identity cluster);
  let ops = ops1 - ops0 in
  check Alcotest.bool "ops completed" true (ops > 1000);
  let per_op = float_of_int (words1 - words0) /. float_of_int ops in
  if per_op >= 30.0 then
    Alcotest.failf "heap grew %.1f words per op (%d ops)" per_op ops

let () =
  Alcotest.run "protocol"
    [
      ( "normal case",
        [
          Alcotest.test_case "basic commit flow" `Quick test_basic_commit_flow;
          Alcotest.test_case "client counters" `Quick test_client_counters;
          Alcotest.test_case "result payload size" `Quick test_result_payload_size;
          Alcotest.test_case "read-only bypasses ordering" `Quick
            test_read_only_no_sequence;
          Alcotest.test_case "read-only opt disabled" `Quick
            test_read_only_opt_disabled;
          Alcotest.test_case "one outstanding op per client" `Quick
            test_client_one_outstanding;
          Alcotest.test_case "duplicates answered from cache" `Quick
            test_duplicate_request_resends_cached_reply;
        ] );
      ( "optimizations",
        [
          Alcotest.test_case "batching under concurrency" `Quick
            test_batching_under_concurrency;
          Alcotest.test_case "no batching: one instance per request" `Quick
            test_no_batching_one_per_request;
          Alcotest.test_case "separate request transmission" `Quick
            test_separate_request_transmission;
          Alcotest.test_case "inline when SRT disabled" `Quick
            test_inline_when_srt_disabled;
          Alcotest.test_case "tentative vs final execution" `Quick
            test_tentative_vs_final_execution;
          Alcotest.test_case "piggybacked commits" `Quick test_piggybacked_commits;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "stability and gc" `Quick
            test_checkpoint_stability_and_gc;
          Alcotest.test_case "heap bounded per op" `Quick
            test_heap_bounded_per_op;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "f=2 cluster" `Quick test_f2_cluster;
          Alcotest.test_case "corrupt replies outvoted" `Quick
            test_corrupt_replies_tolerated;
          Alcotest.test_case "forged auth rejected" `Quick test_forged_auth_rejected;
          Alcotest.test_case "replayed datagrams dropped" `Quick
            test_replayed_datagrams_dropped;
          Alcotest.test_case "mute backup tolerated" `Quick
            test_mute_backup_tolerated;
          Alcotest.test_case "slow replica tolerated" `Quick
            test_slow_replica_tolerated;
        ] );
      ( "services",
        [
          Alcotest.test_case "kv semantics through replication" `Quick
            test_kv_service_replication;
          Alcotest.test_case "state digests converge" `Quick
            test_state_digests_converge;
        ] );
    ]
