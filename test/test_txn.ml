(* Tests for the cross-shard layer: two-phase-commit transactions over the
   PBFT groups of a rig, client-driven lock recovery after a coordinator
   crash, and live resharding under traffic — plus the campaign-level
   audits ([txn.atomic], [reshard.no_lost_keys]) including the
   checker-catches-a-real-violation self-test. *)

open Bft_core
module Rig = Bft_shard.Rig
module Router = Bft_shard.Router
module Proxy = Bft_shard.Proxy
module Txn = Bft_shard.Txn
module Reshard = Bft_shard.Reshard
module Kv = Bft_services.Kv_store
module Shard_campaign = Bft_chaos.Shard_campaign

let check = Alcotest.check

let config = Config.make ~f:1 ()

(* A rig whose replica stores we retain, so tests can audit replicated
   state (locks, bindings) directly. [stores.(g).(r)] is group [g]'s
   replica [r]. *)
let rig_with_stores ?initial_groups ~seed ~groups () =
  let n = config.Config.n in
  let stores =
    Array.init groups (fun _ -> Array.init n (fun _ -> Kv.create_store ()))
  in
  let rig =
    Rig.create ?initial_groups ~seed ~groups ~config
      ~service:(fun ~group r -> Kv.service_of_store stores.(group).(r))
      ()
  in
  (rig, stores)

(* Two keys owned by different groups under the rig's current router. *)
let cross_group_keys rig =
  let router = Rig.router rig in
  let key i = Printf.sprintf "txnkey-%d" i in
  let k1 = key 0 in
  let g1 = Router.group_of_key router k1 in
  let rec find i =
    if i > 1000 then Alcotest.fail "no cross-group key pair found";
    let k = key i in
    if Router.group_of_key router k <> g1 then k else find (i + 1)
  in
  (k1, find 1)

let no_leftover_txn_state stores =
  Array.iter
    (Array.iter (fun store ->
         check
           (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
           "no leftover locks" [] (Kv.store_locks store);
         check
           (Alcotest.list Alcotest.string)
           "no in-doubt prepares" []
           (Kv.store_prepared_txns store)))
    stores

let test_cross_shard_commit () =
  let rig, stores = rig_with_stores ~seed:21 ~groups:2 () in
  let k1, k2 = cross_group_keys rig in
  let h = Txn.create rig in
  let outcome = ref None in
  Txn.exec h
    [ Kv.Put (k1, "v1"); Kv.Put (k2, "v2") ]
    (fun o -> outcome := Some o);
  Rig.run ~until:30.0 rig;
  (match !outcome with
  | Some Txn.Committed -> ()
  | Some (Txn.Aborted reason) -> Alcotest.failf "aborted: %s" reason
  | None -> Alcotest.fail "transaction never resolved");
  (* Both writes visible through the ordinary single-key path, on every
     replica of the owning group. *)
  List.iter
    (fun (key, expect) ->
      let g = Router.group_of_key (Rig.router rig) key in
      Array.iter
        (fun store ->
          check
            (Alcotest.option Alcotest.string)
            (key ^ " committed")
            (Some expect) (Kv.store_find store key))
        stores.(g))
    [ (k1, "v1"); (k2, "v2") ];
  no_leftover_txn_state stores;
  check Alcotest.int "one txn committed" 1 (Txn.committed h)

(* The replicas of a group share the values a multicast write carries:
   each store's bindings point into the one request payload (or PREPARE
   payload) that every replica of the group received, so four stores hold
   about one copy of the values, not four. Their digests and snapshot bytes
   are pinned to what the store produced when each replica kept a copy of
   every value: reading values in place changes no byte. *)
let test_replicas_share_values () =
  let rig, stores = rig_with_stores ~seed:25 ~groups:2 () in
  let value i = Printf.sprintf "%04d" i ^ String.make 1020 (Char.chr (97 + (i mod 26))) in
  let key i = Printf.sprintf "share-%d" i in
  let proxy = Proxy.create rig in
  let rec put i =
    if i < 64 then
      Proxy.invoke proxy (Kv.Put (key i, value i)) (fun o ->
          check Alcotest.bool "put stored" true (o.Proxy.result = Kv.Stored);
          put (i + 1))
  in
  put 0;
  Rig.run ~until:10.0 rig;
  let k1, k2 = cross_group_keys rig in
  let outcome = ref None in
  Txn.exec (Txn.create rig)
    [ Kv.Put (k1, value 100); Kv.Put (k2, value 101) ]
    (fun o -> outcome := Some o);
  Rig.run ~until:30.0 rig;
  check Alcotest.bool "txn committed" true (!outcome = Some Txn.Committed);
  let written =
    (k1, value 100) :: (k2, value 101) :: List.init 64 (fun i -> (key i, value i))
  in
  let pinned =
    [
      (0, "ee9568dcaa699761700fb66534cfbb40", "558efb75310eb2e5ad62ee1d4a000e2c");
      (1, "4e6054701cddb95dc58aa39bb52d7d36", "38fefe2a4a3670e2e9f9b28f383f8a06");
    ]
  in
  List.iter
    (fun (g, digest, snapshot) ->
      let group = stores.(g) in
      Array.iter
        (fun store ->
          List.iter
            (fun (k, v) ->
              if Router.group_of_key (Rig.router rig) k = g then
                check
                  (Alcotest.option Alcotest.string)
                  k (Some v) (Kv.store_find store k))
            written;
          let svc = Kv.service_of_store store in
          check Alcotest.string "state digest" digest
            (Digest.to_hex (svc.Service.state_digest ()));
          let forced = Lazy.force (svc.Service.capture ()).Service.payload in
          check Alcotest.string "snapshot bytes" snapshot
            (Digest.to_hex (Digest.string forced.Payload.data)))
        group;
      let one = Obj.reachable_words (Obj.repr group.(0)) in
      let four = Obj.reachable_words (Obj.repr group) in
      if 2 * four >= 3 * one then
        Alcotest.failf "group %d: four stores hold %d words, one store %d" g four one)
    pinned

(* The prepare deadline is a timer the votes cancel: once a transaction
   commits, nothing of it stays queued in the engine until the deadline
   would have fired ([prepare_timeout], 2 s here). *)
let test_deadline_leaves_queue () =
  let rig, _ = rig_with_stores ~seed:21 ~groups:2 () in
  let k1, k2 = cross_group_keys rig in
  let h = Txn.create rig in
  let engine = Rig.engine rig in
  Rig.run ~until:1.0 rig;
  let before = Bft_sim.Engine.pending engine in
  let outcome = ref None in
  Txn.exec h
    [ Kv.Put (k1, "v1"); Kv.Put (k2, "v2") ]
    (fun o -> outcome := Some o);
  Rig.run ~until:1.5 rig;
  check Alcotest.bool "committed" true (!outcome = Some Txn.Committed);
  check Alcotest.int "queued events back to their count before the txn" before
    (Bft_sim.Engine.pending engine)

let test_cross_shard_abort_is_atomic () =
  (* Wedge one key under a foreign transaction's lock (a raw replicated
     Prepare that nobody resolves): a transaction spanning that key and a
     healthy one must abort as a unit — the healthy key keeps its old
     binding. *)
  let rig, stores = rig_with_stores ~seed:22 ~groups:2 () in
  let k1, k2 = cross_group_keys rig in
  let g1 = Router.group_of_key (Rig.router rig) k1 in
  let wedger = Cluster.add_client (Rig.cluster rig g1) in
  let wedged = ref false in
  Client.invoke wedger
    (Kv.op_payload
       (Kv.Prepare
          {
            txn = "wedge";
            decision = g1;
            participants = [ g1 ];
            ops = [ Kv.Put (k1, "wedged") ];
          }))
    (fun outcome ->
      match Kv.result_of_payload outcome.Client.result with
      | Kv.Prepared true -> wedged := true
      | _ -> Alcotest.fail "wedge prepare rejected");
  Rig.run ~until:5.0 rig;
  check Alcotest.bool "wedge lock in place" true !wedged;
  let h = Txn.create rig in
  let seed = Proxy.create rig in
  let stored = ref false in
  Proxy.invoke seed
    (Kv.Put (k2, "before"))
    (fun o ->
      (match o.Proxy.result with
      | Kv.Stored -> stored := true
      | _ -> Alcotest.fail "seed write failed");
      Txn.exec h
        [ Kv.Put (k1, "x"); Kv.Put (k2, "y") ]
        (fun outcome ->
          match outcome with
          | Txn.Aborted _ -> ()
          | Txn.Committed -> Alcotest.fail "committed through a foreign lock"));
  Rig.run ~until:40.0 rig;
  check Alcotest.bool "seed write completed" true !stored;
  check Alcotest.int "txn aborted" 1 (Txn.aborted h);
  (* Atomicity: the healthy key still holds its pre-transaction value. *)
  let g2 = Router.group_of_key (Rig.router rig) k2 in
  Array.iter
    (fun store ->
      check
        (Alcotest.option Alcotest.string)
        "partner key untouched" (Some "before") (Kv.store_find store k2))
    stores.(g2)

let test_coordinator_crash_recovery () =
  (* A coordinator dies between PREPARE and COMMIT; a later writer blocked
     on the leftover lock resolves the transaction itself and gets
     through. *)
  let rig, stores = rig_with_stores ~seed:23 ~groups:2 () in
  let k1, k2 = cross_group_keys rig in
  let doomed = Txn.create rig in
  Txn.set_fail_mode doomed Txn.Crash_between_prepare_and_commit;
  Txn.exec doomed
    [ Kv.Put (k1, "ghost1"); Kv.Put (k2, "ghost2") ]
    (fun _ -> Alcotest.fail "dead coordinator's callback fired");
  Rig.run ~until:10.0 rig;
  check Alcotest.bool "coordinator died" true (Txn.dead doomed);
  let locked =
    Array.exists
      (Array.exists (fun store -> Kv.store_locks store <> []))
      stores
  in
  check Alcotest.bool "locks left behind" true locked;
  let rescuer = Txn.create ~recovery_timeout:0.2 rig in
  let result = ref None in
  Txn.invoke rescuer (Kv.Put (k1, "after")) (fun r -> result := Some r);
  Rig.run ~until:120.0 rig;
  (match !result with
  | Some Kv.Stored -> ()
  | Some r ->
    Alcotest.failf "recovery write failed: %s"
      (match r with Kv.Error e -> e | _ -> "unexpected result")
  | None -> Alcotest.fail "recovery write never completed");
  check Alcotest.bool "rescuer resolved the orphan" true
    (Txn.recoveries rescuer >= 1);
  no_leftover_txn_state stores;
  (* The orphan resolved to a single outcome everywhere: either both ghost
     writes landed (roll-forward) or neither did — and k1 then took the
     rescuer's write regardless. *)
  let g2 = Router.group_of_key (Rig.router rig) k2 in
  let ghost2 = Kv.store_find stores.(g2).(0) k2 in
  check Alcotest.bool "partner key all-or-nothing" true
    (match ghost2 with Some "ghost2" | None -> true | Some _ -> false);
  let g1 = Router.group_of_key (Rig.router rig) k1 in
  Array.iter
    (fun store ->
      check
        (Alcotest.option Alcotest.string)
        "rescuer write landed" (Some "after") (Kv.store_find store k1))
    stores.(g1)

let test_live_reshard_keeps_keys () =
  (* Write through proxies, grow 2 -> 3 groups live, then read every key
     back through the new routing. *)
  let rig, stores = rig_with_stores ~initial_groups:2 ~seed:24 ~groups:3 () in
  check Alcotest.int "starts routed to 2 groups" 2 (Rig.group_count rig);
  let keys = List.init 40 (fun i -> Printf.sprintf "mig-%d" i) in
  let writer = Proxy.create rig in
  let written = ref 0 in
  let rec write = function
    | [] -> ()
    | key :: rest ->
      Proxy.invoke writer
        (Kv.Put (key, "val-" ^ key))
        (fun o ->
          (match o.Proxy.result with
          | Kv.Stored -> incr written
          | _ -> Alcotest.failf "write %s failed" key);
          write rest)
  in
  write keys;
  let done_ = ref None in
  Bft_sim.Engine.schedule (Rig.engine rig) ~delay:0.05 (fun () ->
      Reshard.extend rig ~groups:3 (fun p -> done_ := Some p));
  Rig.run ~until:120.0 rig;
  check Alcotest.int "all writes completed" (List.length keys) !written;
  let progress =
    match !done_ with
    | Some p -> p
    | None -> Alcotest.fail "reshard never completed"
  in
  check Alcotest.bool "some slots moved" true (progress.Reshard.moved_slots > 0);
  check Alcotest.int "router grew" 3 (Rig.group_count rig);
  (* Every key reads back from its (possibly new) owner; moved keys are
     gone from the donor. *)
  let before = Router.create ~groups:2 () in
  let after = Rig.router rig in
  List.iter
    (fun key ->
      let owner = Router.group_of_key after key in
      check
        (Alcotest.option Alcotest.string)
        (key ^ " readable after reshard")
        (Some ("val-" ^ key))
        (Kv.store_find stores.(owner).(0) key);
      let old_owner = Router.group_of_key before key in
      if old_owner <> owner then
        check
          (Alcotest.option Alcotest.string)
          (key ^ " retired from donor") None
          (Kv.store_find stores.(old_owner).(0) key))
    keys

(* --- campaign-level audits -------------------------------------------- *)

let failf_violations outcome =
  List.iter
    (fun v ->
      Printf.printf "  [%s] %s\n" v.Shard_campaign.invariant
        v.Shard_campaign.detail)
    outcome.Shard_campaign.violations;
  Alcotest.fail "campaign reported violations"

let test_campaign_healthy () =
  let outcome = Shard_campaign.run ~scenario:Shard_campaign.Healthy ~seed:3 () in
  if Shard_campaign.failed outcome then failf_violations outcome;
  check Alcotest.bool "made cross-shard progress" true
    (outcome.Shard_campaign.txns_committed > 0);
  check Alcotest.bool "resharded live" true
    (outcome.Shard_campaign.moved_slots > 0)

let test_campaign_coordinator_crash () =
  let outcome =
    Shard_campaign.run ~scenario:Shard_campaign.Coordinator_crash ~seed:1 ()
  in
  if Shard_campaign.failed outcome then failf_violations outcome;
  check Alcotest.bool "crash left an in-doubt txn" true
    (outcome.Shard_campaign.txns_in_doubt > 0);
  check Alcotest.bool "recovery resolved it" true
    (outcome.Shard_campaign.recoveries > 0)

let test_campaign_mid_migration_crash () =
  let outcome =
    Shard_campaign.run ~scenario:Shard_campaign.Replica_mid_migration ~seed:1 ()
  in
  if Shard_campaign.failed outcome then failf_violations outcome;
  check Alcotest.bool "resharded through the crash" true
    (outcome.Shard_campaign.moved_slots > 0)

let test_audit_catches_wedged_txn () =
  (* The self-test the txn.atomic audit must pass: with recovery disabled,
     a coordinator crash between PREPARE and COMMIT leaves a genuinely
     wedged transaction, and the checker must say so. *)
  let outcome =
    Shard_campaign.run ~scenario:Shard_campaign.Coordinator_crash
      ~recovery:false ~seed:1 ()
  in
  check Alcotest.bool "audit flags the violation" true
    (Shard_campaign.failed outcome);
  check Alcotest.bool "and it is the atomicity invariant" true
    (List.exists
       (fun v -> String.equal v.Shard_campaign.invariant "txn.atomic")
       outcome.Shard_campaign.violations)

let test_campaign_deterministic () =
  let run () =
    Shard_campaign.jsonl
      (Shard_campaign.run ~scenario:Shard_campaign.Healthy ~seed:9 ())
  in
  check Alcotest.string "same seed, same outcome" (run ()) (run ())

let () =
  Alcotest.run "txn"
    [
      ( "2pc",
        [
          Alcotest.test_case "cross-shard commit" `Quick test_cross_shard_commit;
          Alcotest.test_case "deadline leaves the queue" `Quick
            test_deadline_leaves_queue;
          Alcotest.test_case "abort is atomic" `Quick
            test_cross_shard_abort_is_atomic;
          Alcotest.test_case "coordinator crash recovery" `Quick
            test_coordinator_crash_recovery;
          Alcotest.test_case "replicas share written values" `Quick
            test_replicas_share_values;
        ] );
      ( "reshard",
        [
          Alcotest.test_case "live reshard keeps keys" `Quick
            test_live_reshard_keeps_keys;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "healthy" `Slow test_campaign_healthy;
          Alcotest.test_case "coordinator crash" `Slow
            test_campaign_coordinator_crash;
          Alcotest.test_case "mid-migration crash" `Slow
            test_campaign_mid_migration_crash;
          Alcotest.test_case "audit catches wedged txn" `Slow
            test_audit_catches_wedged_txn;
          Alcotest.test_case "deterministic" `Slow test_campaign_deterministic;
        ] );
    ]
