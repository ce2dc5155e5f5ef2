(* Property-based safety and liveness tests: randomized fault schedules,
   network conditions and workloads, checking the paper's core guarantees:

   - agreement: no two correct replicas finally execute different batches
     at the same sequence number;
   - validity/exactly-once: a client that completes an operation got a
     result vouched for by a quorum, and correct replicas never execute a
     client timestamp twice;
   - liveness: with at most f faulty replicas and a quiescent-enough
     network, every operation eventually completes. *)

open Bft_core

let check = Alcotest.check

type scenario = {
  seed : int;
  drop : float;
  dup : float;
  byz : int;  (* selects a behavior for one replica *)
  clients : int;
  ops : int;
}

let behavior_of_code = function
  | 0 -> None
  | 1 -> Some Behavior.Mute
  | 2 -> Some Behavior.Corrupt_replies
  | 3 -> Some Behavior.Forge_auth
  | 4 -> Some (Behavior.Crash_at 0.01)
  | 5 -> Some Behavior.Two_faced
  | _ -> Some (Behavior.Slow 0.001)

let scenario_gen =
  QCheck.Gen.(
    map
      (fun (seed, drop, dup, byz, clients, ops) ->
        {
          seed;
          drop = float_of_int drop /. 200.0;  (* 0..3% *)
          dup = float_of_int dup /. 100.0;
          byz;
          clients = 1 + clients;
          ops = 3 + ops;
        })
      (tup6 (int_bound 10_000) (int_bound 6) (int_bound 3) (int_bound 6)
         (int_bound 4) (int_bound 7)))

let run_scenario s =
  let config = Config.make ~f:1 ~checkpoint_interval:8 ~log_window:16 () in
  let target = Bft_util.Rng.int (Bft_util.Rng.of_int s.seed) 4 in
  let behaviors =
    match behavior_of_code s.byz with
    | None -> []
    | Some b -> [ (target, b) ]
  in
  let rig =
    Harness.make ~config ~seed:s.seed ~behaviors ~nclients:s.clients ()
  in
  let net = Cluster.network rig.Harness.cluster in
  Bft_net.Network.set_loss net s.drop;
  Bft_net.Network.set_duplication net s.dup;
  let completed = Harness.run_ops ~per_client:s.ops ~until:40.0 rig in
  (rig, completed)

let agreement_prop =
  QCheck.Test.make ~name:"agreement under random faults" ~count:12
    (QCheck.make scenario_gen) (fun s ->
      let rig, _ = run_scenario s in
      Harness.check_agreement rig;
      true)

let liveness_prop =
  QCheck.Test.make ~name:"liveness under random faults" ~count:8
    (QCheck.make scenario_gen) (fun s ->
      (* Liveness holds for <= f faults and moderate loss. *)
      let s = { s with drop = Float.min s.drop 0.04 } in
      let rig, completed = run_scenario s in
      if completed <> s.clients * s.ops then
        QCheck.Test.fail_reportf "only %d/%d ops completed (seed %d, byz %d)"
          completed (s.clients * s.ops) s.seed s.byz;
      Harness.check_agreement rig;
      true)

let exactly_once_prop =
  QCheck.Test.make ~name:"no double execution of a client timestamp" ~count:6
    (QCheck.make scenario_gen) (fun s ->
      let rig, _ = run_scenario s in
      (* Count executed batches per correct replica: every client op may be
         finally executed at most once, so the audited sequence can never
         contain more than ops*clients non-null batches. *)
      List.for_all
        (fun r ->
          List.length (Replica.executed_digests r)
          <= (s.clients * s.ops) + 8 (* allow null fillers from view changes *))
        (Cluster.correct_replicas rig.Harness.cluster))

(* A deterministic sequential-consistency check on the KV store: concurrent
   writers to disjoint keys, then read everything back; each key must hold
   its writer's last value. *)
let test_kv_sequential_consistency () =
  let module Kv = Bft_services.Kv_store in
  let config = Config.make ~f:1 ~checkpoint_interval:8 ~log_window:16 () in
  let cluster =
    Cluster.create ~config ~seed:7 ~service:(fun _ -> Kv.service ()) ()
  in
  let clients = Array.init 4 (fun _ -> Cluster.add_client cluster) in
  let writes_per_client = 6 in
  Array.iteri
    (fun idx client ->
      let rec loop k =
        if k <= writes_per_client then
          Client.invoke client
            (Kv.op_payload (Kv.Put (Printf.sprintf "key%d" idx, string_of_int k)))
            (fun _ -> loop (k + 1))
      in
      loop 1)
    clients;
  Cluster.run ~until:30.0 cluster;
  (* read back through a fresh client *)
  let reader = Cluster.add_client cluster in
  let seen = Hashtbl.create 8 in
  let rec read idx =
    if idx < 4 then
      Client.invoke reader ~read_only:true
        (Kv.op_payload (Kv.Get (Printf.sprintf "key%d" idx)))
        (fun o ->
          (match Kv.result_of_payload o.Client.result with
          | Kv.Value v -> Hashtbl.replace seen idx v
          | _ -> ());
          read (idx + 1))
  in
  read 0;
  Cluster.run ~until:60.0 cluster;
  for idx = 0 to 3 do
    check
      (Alcotest.option Alcotest.string)
      (Printf.sprintf "key%d last write wins" idx)
      (Some (string_of_int writes_per_client))
      (Option.join (Hashtbl.find_opt seen idx))
  done

(* Rollback safety: a view change that aborts tentative executions must
   leave the service state equal to the committed prefix. *)
let test_rollback_preserves_state () =
  let module Kv = Bft_services.Kv_store in
  let config = Config.make ~f:1 ~checkpoint_interval:8 ~log_window:16 () in
  let services = Array.init 4 (fun _ -> Kv.service ()) in
  let cluster =
    Cluster.create ~config ~seed:11
      ~behaviors:[ (0, Behavior.Crash_at 0.004) ]
      ~service:(fun i -> services.(i))
      ()
  in
  let client = Cluster.add_client cluster in
  let n = ref 0 in
  let rec loop k =
    if k > 0 then
      Client.invoke client
        (Kv.op_payload (Kv.Put (Printf.sprintf "k%d" k, "v")))
        (fun _ ->
          incr n;
          loop (k - 1))
  in
  loop 12;
  Cluster.run ~until:30.0 cluster;
  check Alcotest.int "all writes completed" 12 !n;
  (* the three correct replicas agree on the final state *)
  let digests =
    List.filteri (fun i _ -> i > 0) (Array.to_list services)
    |> List.map (fun s -> s.Service.state_digest ())
  in
  match digests with
  | d :: rest ->
    List.iter
      (fun d' ->
        check Alcotest.bool "states agree after rollback" true
          (Bft_crypto.Fingerprint.equal d d'))
      rest
  | [] -> ()

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "safety"
    [
      ( "properties",
        [ q agreement_prop; q liveness_prop; q exactly_once_prop ] );
      ( "scenarios",
        [
          Alcotest.test_case "kv sequential consistency" `Quick
            test_kv_sequential_consistency;
          Alcotest.test_case "rollback preserves state" `Quick
            test_rollback_preserves_state;
        ] );
    ]
