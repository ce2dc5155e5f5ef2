(* Rotating-ordering mode (Config.Rotating): distinct replicas order
   disjoint epochs of sequence numbers concurrently; execution stays in
   global sequence order. These tests pin the mode's safety properties —
   same client outcomes as single-primary ordering, agreement across an
   epoch-owner crash, no duplicate execution across the handoff — and the
   satellite regressions that rode along with the refactor. *)

open Bft_core
module Counter = Bft_services.Counter

let rotating_config ?(epoch_length = 2) ?(f = 1) () =
  Config.make ~f ~checkpoint_interval:8 ~log_window:32
    ~ordering:(Config.Rotating { epoch_length })
    ()

(* Each client drives [per_client] sequential Adds against its own named
   counter, recording every reply value. Per-client results are then
   1, 2, ..., per_client regardless of how the clients' batches interleave
   in the global order — so the observed sequences are comparable across
   ordering modes, and a duplicate execution (a batch surviving an epoch
   handoff twice) shows up as a skipped value. *)
let run_counters ~config ~nclients ~per_client ?(crash = fun _ _ -> ()) () =
  let cluster =
    Cluster.create ~config ~seed:42
      ~service:(fun _ -> Counter.service ())
      ()
  in
  let clients = Array.init nclients (fun _ -> Cluster.add_client cluster) in
  let observed = Array.make nclients [] in
  Array.iteri
    (fun idx client ->
      let key = Printf.sprintf "c%d" idx in
      let rec loop remaining =
        if remaining > 0 then
          Client.invoke client
            (Counter.op_payload (Counter.Add (key, 1)))
            (fun outcome ->
              (match Counter.value_of_payload outcome.Client.result with
              | Some v -> observed.(idx) <- v :: observed.(idx)
              | None -> Alcotest.fail "unparseable counter reply");
              loop (remaining - 1))
      in
      loop per_client)
    clients;
  crash cluster (Cluster.engine cluster);
  Cluster.run ~until:60.0 cluster;
  (cluster, Array.map List.rev observed)

let check_agreement cluster =
  match Audit.agreement (Cluster.correct_replicas cluster) with
  | [] -> ()
  | (seq, _, _) :: _ -> Alcotest.failf "agreement violated at seq %d" seq

let expected per_client = List.init per_client (fun i -> i + 1)

(* --- the mode works and actually rotates -------------------------------- *)

let test_progress_and_rotation () =
  let cluster, observed =
    run_counters ~config:(rotating_config ()) ~nclients:4 ~per_client:8 ()
  in
  Array.iteri
    (fun idx seen ->
      Alcotest.(check (list int))
        (Printf.sprintf "client %d outcomes" idx)
        (expected 8) seen)
    observed;
  check_agreement cluster;
  (* Load was actually spread: more than one replica proposed batches. *)
  let proposers =
    Cluster.replicas cluster |> Array.to_list
    |> List.filter (fun r -> Metrics.count (Replica.metrics r) "preprepare.sent" > 0)
    |> List.length
  in
  if proposers < 2 then
    Alcotest.failf "expected >= 2 distinct proposers, saw %d" proposers

(* --- same client outcomes as single-primary ordering -------------------- *)

let test_matches_single_primary () =
  let run config =
    let cluster, observed = run_counters ~config ~nclients:3 ~per_client:10 () in
    check_agreement cluster;
    observed
  in
  let single =
    run (Config.make ~f:1 ~checkpoint_interval:8 ~log_window:32 ())
  in
  let rot = run (rotating_config ()) in
  Alcotest.(check int) "same number of clients" (Array.length single) (Array.length rot);
  Array.iteri
    (fun idx seen ->
      Alcotest.(check (list int))
        (Printf.sprintf "client %d same outcomes" idx)
        single.(idx) seen)
    rot

(* --- epoch-owner crash: handoff must not lose or duplicate work ---------- *)

let crashed_owner = 2

let test_owner_crash_handoff () =
  let crash cluster engine =
    (* Mid-run, while epochs are actively handed off. Replica 2 is a
       non-primary epoch owner in view 0: the view primary must reclaim
       its stalled slots (null-fill) rather than force a view change per
       epoch it owns. *)
    Bft_sim.Engine.schedule engine ~delay:0.05 (fun () ->
        Cluster.crash_replica cluster crashed_owner)
  in
  let cluster, observed =
    run_counters ~config:(rotating_config ()) ~nclients:4 ~per_client:30 ~crash
      ()
  in
  Array.iteri
    (fun idx seen ->
      Alcotest.(check (list int))
        (Printf.sprintf "client %d outcomes after owner crash" idx)
        (expected 30) seen)
    observed;
  check_agreement cluster;
  (* No duplicate execution across the handoff: every correct replica's
     finalized reply cache must agree per client, and no correct replica
     may have executed the same (seq, digest) twice. *)
  let correct =
    Cluster.correct_replicas cluster
    |> List.filter (fun r -> Replica.id r <> crashed_owner)
  in
  let replies = List.map Replica.client_replies correct in
  (match replies with
  | first :: rest ->
    List.iter
      (fun other ->
        if other <> first then
          Alcotest.fail "correct replicas disagree on client replies")
      rest
  | [] -> Alcotest.fail "no correct replicas");
  List.iter
    (fun (rid, seq) ->
      Alcotest.failf "replica %d executed seq %d twice" rid seq)
    (Audit.unique_execution correct)

(* --- view change subsumes a failed epoch owner --------------------------- *)

let test_primary_crash_rotates_owners () =
  let crash cluster engine =
    Bft_sim.Engine.schedule engine ~delay:0.05 (fun () ->
        Cluster.crash_replica cluster 0)
  in
  let cluster, observed =
    run_counters ~config:(rotating_config ()) ~nclients:4 ~per_client:30 ~crash
      ()
  in
  Array.iteri
    (fun idx seen ->
      Alcotest.(check (list int))
        (Printf.sprintf "client %d outcomes after primary crash" idx)
        (expected 30) seen)
    observed;
  check_agreement cluster;
  (* The cluster moved past view 0: the view change re-mapped every epoch
     owner at once (subsuming the failed one). *)
  let max_view =
    Cluster.correct_replicas cluster
    |> List.filter (fun r -> Replica.id r <> 0)
    |> List.fold_left (fun acc r -> Stdlib.max acc (Replica.view r)) 0
  in
  if max_view < 1 then Alcotest.fail "expected a view change past view 0"

(* --- few active clients: ownerless gaps must not wedge the orderer ------- *)

let test_sparse_clients_progress () =
  (* Review regression: with one active client homed at replica 2 the
     first owned slot is 5 (epoch 2), and the old distance-based pipeline
     window (next_seq <= last_executed + batch_window * n = 4) could never
     open — nothing was ever proposed, so the primary reclaim had nothing
     to chase. The cluster only escaped through repeated view changes (a
     stale pending queue eventually lands on a replica whose owned slots
     fall inside the window), several timeouts per sparse request. The
     owned-slot window must serve the request promptly in view 0. *)
  let config = rotating_config () in
  let cluster =
    Cluster.create ~config ~seed:9 ~client_principal_base:6
      ~service:(fun _ -> Counter.service ())
      ()
  in
  (* Principal 6 = 2 (mod 4): home orderer 2, whose lowest owned slot (5)
     sits beyond the whole-gap distance bound. *)
  let client = Cluster.add_client cluster in
  let seen = ref [] in
  let rec loop remaining =
    if remaining > 0 then
      Client.invoke client
        (Counter.op_payload (Counter.Add ("k", 1)))
        (fun outcome ->
          (match Counter.value_of_payload outcome.Client.result with
          | Some v -> seen := v :: !seen
          | None -> Alcotest.fail "unparseable counter reply");
          loop (remaining - 1))
  in
  loop 4;
  Cluster.run ~until:30.0 cluster;
  Alcotest.(check (list int))
    "single sparse client completes" (expected 4)
    (List.rev !seen);
  Array.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d needed no view change" (Replica.id r))
        0
        (Metrics.count (Replica.metrics r) "viewchange.started"))
    (Cluster.replicas cluster);
  check_agreement cluster

(* --- Byzantine handoff claims must not drive null-fill -------------------- *)

(* Review regression: the handoff side effects of ORDERED-PRE-PREPARE
   (claiming/null-filling the receiver's own slots up to the claimed
   epoch) used to run before any validation of the claim, so a Byzantine
   replica could multicast an arbitrary in-window [opp_seq] and make every
   correct replica burn its owned slots with null batches. Forge one with
   replica 3's keys (fresh transport, same master secret) on an otherwise
   quiet cluster and check nobody reacts. *)
let forged_handoff ~opp_seq =
  let config = rotating_config () in
  let cluster =
    Cluster.create ~config ~seed:5 ~master:"m"
      ~service:(fun _ -> Counter.service ())
      ()
  in
  let forged = Harness.impostor cluster 3 and dsts = Harness.replica_peers cluster 3 in
  (* Inject before replica 3's first real message so the forged nonce is
     fresh at every receiver. *)
  Bft_sim.Engine.schedule (Cluster.engine cluster) ~delay:0.001 (fun () ->
      Transport.multicast forged ~dsts
        (Message.Ordered_pre_prepare
           {
             Message.opp_view = 0;
             opp_seq;
             opp_close = 0;
             opp_entries = [ Message.Null_entry ];
           }));
  Cluster.run ~until:5.0 cluster;
  cluster

let metric_sum cluster ids metric =
  List.fold_left
    (fun acc i ->
      acc + Metrics.count (Replica.metrics (Cluster.replica cluster i)) metric)
    0 ids

let test_forged_handoff_not_owner () =
  (* Seq 21 (epoch 10) belongs to replica 2 in view 0, not to the forging
     replica 3: the claim must be ignored wholesale. *)
  let cluster = forged_handoff ~opp_seq:21 in
  Alcotest.(check int) "no pre-prepare accepted" 0
    (metric_sum cluster [ 0; 1; 2 ] "preprepare.accepted");
  Alcotest.(check int) "nothing proposed" 0
    (metric_sum cluster [ 0; 1; 2 ] "preprepare.sent");
  Alcotest.(check int) "no null-fill" 0
    (metric_sum cluster [ 0; 1; 2 ] "rotate.null_fill")

let test_forged_handoff_mid_epoch () =
  (* Seq 8 is owned by replica 3 but is not epoch-first (epoch 3 starts at
     7): the embedded pre-prepare may stand on its own — and the primary
     may legitimately reclaim the gap below it — but the handoff side
     effects must not run on the receivers. *)
  let cluster = forged_handoff ~opp_seq:8 in
  Alcotest.(check int) "no null-fill" 0
    (metric_sum cluster [ 0; 1; 2 ] "rotate.null_fill")

(* --- disabled mode is the default ---------------------------------------- *)

let test_default_is_single_primary () =
  let cfg = Config.make ~f:1 () in
  (match cfg.Config.ordering with
  | Config.Single_primary -> ()
  | Config.Rotating _ -> Alcotest.fail "default ordering must be Single_primary");
  match Config.validate (rotating_config ~epoch_length:0 ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "epoch_length = 0 must be rejected"

let () =
  Alcotest.run "rotating-ordering"
    [
      ( "rotating",
        [
          Alcotest.test_case "progress and rotation" `Quick
            test_progress_and_rotation;
          Alcotest.test_case "same outcomes as single-primary" `Quick
            test_matches_single_primary;
          Alcotest.test_case "epoch owner crash handoff" `Quick
            test_owner_crash_handoff;
          Alcotest.test_case "view change subsumes failed owner" `Quick
            test_primary_crash_rotates_owners;
          Alcotest.test_case "sparse clients make progress" `Quick
            test_sparse_clients_progress;
          Alcotest.test_case "forged handoff from non-owner ignored" `Quick
            test_forged_handoff_not_owner;
          Alcotest.test_case "forged mid-epoch handoff ignored" `Quick
            test_forged_handoff_mid_epoch;
          Alcotest.test_case "default config unchanged" `Quick
            test_default_is_single_primary;
        ] );
    ]
