(* Chaos campaign machinery: plan codec, campaign determinism, checker
   soundness on the correct protocol, and the self-test that proves the
   checker catches (and shrinks) a real safety violation when the
   deliberately unsound no-commit-quorum variant is enabled. *)

module Plan = Bft_chaos.Plan
module Campaign = Bft_chaos.Campaign
module Rng = Bft_util.Rng

let check = Alcotest.check

let gen_plan seed = Plan.generate ~rng:(Rng.of_int seed) ~n:4 ~f:1 ~horizon:6.0 ()

let codec_roundtrip () =
  for seed = 1 to 20 do
    let plan = gen_plan seed in
    let s = Plan.to_string plan in
    match Plan.of_string s with
    | Error msg -> Alcotest.failf "seed %d: parse failed: %s" seed msg
    | Ok plan' ->
      check Alcotest.string "codec fixpoint" s (Plan.to_string plan');
      (match Plan.validate ~n:4 plan' with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d: generated plan invalid: %s" seed msg)
  done

let codec_roundtrip_rotating () =
  (* the rotating generator menu adds crash-owner events; they must
     round-trip and validate like everything else *)
  let seen_owner_crash = ref false in
  for seed = 1 to 20 do
    let plan =
      Plan.generate ~rotating:true ~rng:(Rng.of_int seed) ~n:4 ~f:1
        ~horizon:6.0 ()
    in
    if List.exists (fun e -> e.Plan.action = Plan.Crash_owner) plan then
      seen_owner_crash := true;
    let s = Plan.to_string plan in
    match Plan.of_string s with
    | Error msg -> Alcotest.failf "seed %d: parse failed: %s" seed msg
    | Ok plan' ->
      check Alcotest.string "codec fixpoint" s (Plan.to_string plan');
      (match Plan.validate ~n:4 plan' with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d: generated plan invalid: %s" seed msg)
  done;
  check Alcotest.bool "generator emitted at least one crash-owner" true
    !seen_owner_crash

let codec_comments () =
  let src = "# a comment\n\n0.500000 crash 2\n0.250000 loss 0.100000\n" in
  match Plan.of_string src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok plan ->
    check Alcotest.int "two events" 2 (List.length plan);
    (* re-sorted by time *)
    check Alcotest.string "sorted rendering"
      "0.250000 loss 0.100000\n0.500000 crash 2\n" (Plan.to_string plan)

let validate_rejects () =
  let expect_error what plan =
    match Plan.validate ~n:4 plan with
    | Ok () -> Alcotest.failf "%s: expected validation error" what
    | Error _ -> ()
  in
  expect_error "replica out of range"
    [ { Plan.at = 0.1; action = Plan.Crash 7 } ];
  expect_error "negative time" [ { Plan.at = -1.0; action = Plan.Heal } ];
  expect_error "probability out of range"
    [ { Plan.at = 0.1; action = Plan.Set_loss 1.5 } ];
  expect_error "overlapping partition groups"
    [ { Plan.at = 0.1; action = Plan.Partition [ [ 0; 1 ]; [ 1; 2 ] ] } ];
  expect_error "single partition group"
    [ { Plan.at = 0.1; action = Plan.Partition [ [ 0; 1; 2; 3 ] ] } ];
  expect_error "empty burst" [ { Plan.at = 0.1; action = Plan.Client_burst 0 } ];
  expect_error "crash-at behaviour switch"
    [
      {
        Plan.at = 0.1;
        action = Plan.Behavior_switch (1, Bft_core.Behavior.Crash_at 1.0);
      };
    ];
  match
    Plan.validate ~n:4
      [ { Plan.at = 0.1; action = Plan.Partition [ [ 0 ]; [ 1; 2; 3 ] ] } ]
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid plan rejected: %s" msg

(* Same seed and plan => byte-identical report. *)
let campaign_deterministic () =
  let plan = gen_plan 5 in
  let run () = Campaign.run ~seed:907 ~plan () in
  let a = Campaign.jsonl (run ()) in
  let b = Campaign.jsonl (run ()) in
  check Alcotest.string "byte-identical reports" a b

(* Mirrors the bft_lab chaos driver's seed derivation. *)
let driver_campaign ~root ~unsafe i =
  let rng = Rng.split root (Printf.sprintf "campaign%d" i) in
  let plan = Plan.generate ~rng ~n:4 ~f:1 ~horizon:6.0 () in
  let seed = Rng.int rng (1 lsl 30) in
  (seed, plan, Campaign.run ~unsafe_no_commit_quorum:unsafe ~seed ~plan ())

let clean_campaigns () =
  let root = Rng.of_int 42 in
  for i = 0 to 4 do
    let _, _, outcome = driver_campaign ~root ~unsafe:false i in
    if Campaign.failed outcome then
      Alcotest.failf "campaign %d: unexpected violations: %s" i
        (Campaign.jsonl ~campaign:i outcome);
    check Alcotest.int
      (Printf.sprintf "campaign %d: all ops completed" i)
      outcome.Campaign.ops_total outcome.Campaign.ops_completed
  done

(* Rotating ordering under the crash-the-epoch-owner menu: generated plans
   aim half their crashes at whichever replica owns the epoch when the
   event fires, and the campaign must still settle clean — agreement,
   exact reply accounting, and no sequence number executed twice on any
   replica (the duplicate-execution hazard of a botched epoch handoff). *)
let rotating_campaigns_survive_owner_crashes () =
  let root = Rng.of_int 42 in
  let ordering = Bft_core.Config.Rotating { epoch_length = 2 } in
  let owner_crashes = ref 0 in
  (* this index window is chosen so the generated plans actually include
     crash-owner events (three across the five campaigns); the assertion
     below keeps the choice honest if the generator ever changes *)
  for i = 9 to 13 do
    let rng = Rng.split root (Printf.sprintf "rotating%d" i) in
    let plan = Plan.generate ~rotating:true ~rng ~n:4 ~f:1 ~horizon:6.0 () in
    owner_crashes :=
      !owner_crashes
      + List.length
          (List.filter (fun e -> e.Plan.action = Plan.Crash_owner) plan);
    let seed = Rng.int rng (1 lsl 30) in
    let outcome = Campaign.run ~ordering ~seed ~plan () in
    if Campaign.failed outcome then
      Alcotest.failf "rotating campaign %d: unexpected violations: %s" i
        (Campaign.jsonl ~campaign:i outcome)
  done;
  (* the menu is probabilistic per plan, but across five plans the
     handoff-stress event must actually have been exercised *)
  check Alcotest.bool "campaigns included owner crashes" true
    (!owner_crashes > 0)

(* A hand-built worst case: a client burst lands just before the epoch
   owner is killed mid-quorum, then a partition flap isolates another
   replica while the view change is subsuming the dead owner's epochs.
   One crash keeps the plan inside the f = 1 fault assumption (partitions
   are free: they suspend liveness, never safety), so the campaign must
   settle clean after the forced heal. *)
let rotating_handoff_hand_plan () =
  let ordering = Bft_core.Config.Rotating { epoch_length = 2 } in
  let plan =
    [
      { Plan.at = 0.010; action = Plan.Client_burst 6 };
      { Plan.at = 0.012; action = Plan.Crash_owner };
      { Plan.at = 0.500; action = Plan.Partition [ [ 1 ]; [ 0; 2; 3 ] ] };
      { Plan.at = 1.200; action = Plan.Heal };
      { Plan.at = 1.300; action = Plan.Client_burst 6 };
    ]
  in
  (match Plan.validate ~n:4 plan with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "hand plan invalid: %s" msg);
  let outcome = Campaign.run ~ordering ~seed:1213 ~plan () in
  if Campaign.failed outcome then
    Alcotest.failf "handoff plan violated invariants: %s"
      (Campaign.jsonl outcome)

(* The checker must catch the deliberately unsound variant, and the greedy
   shrinker must reduce the failing plan to something minimal that still
   fails (the acceptance bound is <= 5 events). *)
let injected_bug_caught_and_shrunk () =
  let root = Rng.of_int 42 in
  let rec find i =
    if i > 14 then
      Alcotest.fail "no-commit-quorum bug not caught in 15 campaigns"
    else
      let seed, plan, outcome = driver_campaign ~root ~unsafe:true i in
      if Campaign.failed outcome then (seed, plan, outcome) else find (i + 1)
  in
  let seed, plan, outcome = find 0 in
  let safety =
    List.exists
      (fun v ->
        v.Campaign.invariant = "safety.agreement"
        || v.Campaign.invariant = "safety.replies")
      outcome.Campaign.violations
  in
  check Alcotest.bool "violation is a safety violation" true safety;
  let shrunk, shrunk_outcome =
    Campaign.shrink
      ~run:(fun p -> Campaign.run ~unsafe_no_commit_quorum:true ~seed ~plan:p ())
      plan
  in
  check Alcotest.bool "shrunk plan still fails" true
    (Campaign.failed shrunk_outcome);
  if List.length shrunk > 5 then
    Alcotest.failf "shrunk plan has %d events (> 5):\n%s" (List.length shrunk)
      (Plan.to_string shrunk);
  (* and the minimal plan must replay to the same verdict from its file form *)
  match Plan.of_string (Plan.to_string shrunk) with
  | Error msg -> Alcotest.failf "shrunk plan does not re-parse: %s" msg
  | Ok reparsed ->
    let replayed =
      Campaign.run ~unsafe_no_commit_quorum:true ~seed ~plan:reparsed ()
    in
    check Alcotest.string "replay of shrunk plan is byte-identical"
      (Campaign.jsonl shrunk_outcome)
      (Campaign.jsonl replayed)

(* Regression: loopback delivery once bypassed the receiver up check, so a
   replica taken down by a chaos plan's crash action could still hand
   datagrams to itself. Send a self-addressed datagram, crash the node (the
   same mutation [Plan.Crash] executes) before the simulation runs, and the
   delivery must be dropped. *)
let crashed_node_keeps_nothing () =
  let module Cluster = Bft_core.Cluster in
  let module Network = Bft_net.Network in
  let config = Bft_core.Config.make ~f:1 () in
  let cluster =
    Cluster.create ~config ~seed:3 ~service:(fun _ -> Bft_core.Service.null ()) ()
  in
  let net = Cluster.network cluster in
  let node = Cluster.replica_node cluster 0 in
  let got = ref 0 in
  Network.set_handler net node (fun ~src:_ ~wire:_ ~size:_ -> incr got);
  Network.send net ~src:node ~dst:node "self";
  Cluster.crash_replica cluster 0;
  Cluster.run ~until:0.1 cluster;
  check Alcotest.int "no self-delivery on a crashed replica" 0 !got;
  check Alcotest.bool "drop is counted" true (Network.dropped_datagrams net >= 1)

(* The caught-up set behind the shard audits (lock hygiene, donor
   retirement) must include a replica that recovered by state transfer.
   Adopting a checkpoint skips the batches it covers, so that replica's
   execution trail is shorter than its peers' even though it executed up
   to the same point: the set must be ranked by execution point, not by
   trail length. *)
let caught_up_counts_state_transfer () =
  let open Bft_core in
  let module Kv = Bft_services.Kv_store in
  let config = Config.make ~f:1 ~checkpoint_interval:4 ~log_window:8 () in
  let cluster =
    Cluster.create ~config ~seed:13 ~service:(fun _ -> Kv.service ()) ()
  in
  let engine = Cluster.engine cluster in
  let client = Cluster.add_client cluster in
  let rec put i =
    if i < 200 then
      Client.invoke client
        (Kv.op_payload (Kv.Put (Printf.sprintf "k%d" (i mod 16), string_of_int i)))
        (fun _ -> Bft_sim.Engine.schedule engine ~delay:0.01 (fun () -> put (i + 1)))
  in
  put 0;
  Bft_sim.Engine.schedule_at engine 0.001 (fun () -> Cluster.crash_replica cluster 3);
  Bft_sim.Engine.schedule_at engine 1.0 (fun () -> Cluster.restart_replica cluster 3);
  Cluster.run ~until:30.0 cluster;
  let replicas = Cluster.replicas cluster in
  Array.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "replica %d executed everything" (Replica.id r))
        200 (Replica.last_executed r))
    replicas;
  check
    Alcotest.(list int)
    "every replica is caught up" [ 0; 1; 2; 3 ]
    (Audit.caught_up (Array.to_list replicas));
  let trail i = List.length (Replica.executed_digests replicas.(i)) in
  check Alcotest.bool "replica 3 skipped batches by state transfer" true
    (trail 3 < trail 0)

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "codec round-trip" `Quick codec_roundtrip;
          Alcotest.test_case "codec round-trip (rotating)" `Quick
            codec_roundtrip_rotating;
          Alcotest.test_case "comments and sorting" `Quick codec_comments;
          Alcotest.test_case "validation" `Quick validate_rejects;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "crashed node keeps nothing" `Quick
            crashed_node_keeps_nothing;
          Alcotest.test_case "caught-up counts state transfer" `Quick
            caught_up_counts_state_transfer;
          Alcotest.test_case "deterministic" `Slow campaign_deterministic;
          Alcotest.test_case "clean on correct protocol" `Slow clean_campaigns;
          Alcotest.test_case "rotating survives owner crashes" `Slow
            rotating_campaigns_survive_owner_crashes;
          Alcotest.test_case "rotating handoff hand plan" `Quick
            rotating_handoff_hand_plan;
          Alcotest.test_case "injected bug caught and shrunk" `Slow
            injected_bug_caught_and_shrunk;
        ] );
    ]
