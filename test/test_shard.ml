(* Tests for the sharded multi-group deployment: router properties (total,
   deterministic, stable under group growth), fault confinement between
   groups sharing one simulation, and the sharded throughput driver. *)

open Bft_core
module Router = Bft_shard.Router
module Rig = Bft_shard.Rig
module Proxy = Bft_shard.Proxy
module Kv = Bft_services.Kv_store

let check = Alcotest.check

(* --- router ----------------------------------------------------------- *)

let router_total_prop =
  QCheck.Test.make ~name:"router is total and in range" ~count:500
    QCheck.(pair (int_range 1 8) string)
    (fun (groups, key) ->
      let r = Router.create ~groups () in
      let g = Router.group_of_key r key in
      0 <= g && g < groups)

let router_deterministic_prop =
  (* The owner of a key is a pure function of the key and the mapping —
     independently built routers (and a mapping round-trip) always agree,
     and nothing about the experiment seed can perturb it. *)
  QCheck.Test.make ~name:"router is deterministic across instances" ~count:500
    QCheck.(pair (int_range 1 8) string)
    (fun (groups, key) ->
      let a = Router.create ~groups () in
      let b = Router.create ~groups () in
      let c = Router.of_mapping ~groups ~mapping:(Router.mapping a) in
      Router.group_of_key a key = Router.group_of_key b key
      && Router.group_of_key a key = Router.group_of_key c key)

let router_extend_stability_prop =
  (* Growing the deployment may move a key only to a brand-new group:
     traffic never reshuffles between pre-existing groups. *)
  QCheck.Test.make ~name:"extend moves keys only to new groups" ~count:500
    QCheck.(triple (int_range 1 4) (int_range 0 4) string)
    (fun (groups, extra, key) ->
      let r = Router.create ~groups () in
      let r' = Router.extend r ~groups:(groups + extra) in
      let before = Router.group_of_key r key in
      let after = Router.group_of_key r' key in
      after = before || after >= groups)

let test_router_balance () =
  (* Slot counts stay within one of each other after create and extend. *)
  let spread router =
    let counts = Array.make (Router.groups router) 0 in
    Array.iter (fun g -> counts.(g) <- counts.(g) + 1) (Router.mapping router);
    Array.fold_left Stdlib.max 0 counts - Array.fold_left Stdlib.min max_int counts
  in
  List.iter
    (fun groups ->
      check Alcotest.bool
        (Printf.sprintf "create %d groups balanced" groups)
        true
        (spread (Router.create ~groups ()) <= 1))
    [ 1; 2; 3; 4; 5; 7; 8 ];
  List.iter
    (fun (from_g, to_g) ->
      let r = Router.extend (Router.create ~groups:from_g ()) ~groups:to_g in
      check Alcotest.bool
        (Printf.sprintf "extend %d->%d balanced" from_g to_g)
        true (spread r <= 1))
    [ (1, 2); (1, 4); (2, 3); (2, 5); (3, 8); (4, 4) ]

let test_router_validation () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check Alcotest.bool "zero groups rejected" true
    (raises (fun () -> Router.create ~groups:0 ()));
  check Alcotest.bool "more groups than slots rejected" true
    (raises (fun () -> Router.create ~slots:4 ~groups:5 ()));
  check Alcotest.bool "mapping out of range rejected" true
    (raises (fun () -> Router.of_mapping ~groups:2 ~mapping:[| 0; 2 |]));
  check Alcotest.bool "shrink rejected" true
    (raises (fun () -> Router.extend (Router.create ~groups:3 ()) ~groups:2))

let test_router_key_tally () =
  let r = Router.create ~groups:3 () in
  let keys = List.init 300 (fun i -> Printf.sprintf "key-%d" i) in
  let counts = Router.keys_per_group r ~keys in
  check Alcotest.int "tally conserves keys" 300 (Array.fold_left ( + ) 0 counts);
  Array.iteri
    (fun g c ->
      check Alcotest.bool (Printf.sprintf "group %d owns some keys" g) true (c > 0))
    counts

(* Reference implementation of the pre-optimization [extend]: rescan the
   whole mapping for the donor's last slot on every move (O(slots^2)). The
   optimized planner must produce byte-identical mappings — resharding
   plans are part of deployed behaviour, so the speedup must not move a
   single slot. *)
let reference_extend ~from_groups ~to_groups mapping0 =
  let mapping = Array.copy mapping0 in
  if to_groups = from_groups then mapping
  else begin
  let counts = Array.make to_groups 0 in
  Array.iter (fun g -> counts.(g) <- counts.(g) + 1) mapping;
  let donor () =
    let best = ref 0 in
    for g = 1 to from_groups - 1 do
      if counts.(g) > counts.(!best) then best := g
    done;
    !best
  in
  let next_slot_of group =
    let found = ref (-1) in
    Array.iteri (fun s g -> if g = group then found := s) mapping;
    !found
  in
  let continue = ref true in
  while !continue do
    let taker = ref from_groups in
    for g = to_groups - 1 downto from_groups do
      if counts.(g) <= counts.(!taker) then taker := g
    done;
    let from = donor () in
    if counts.(from) > counts.(!taker) + 1 then begin
      let s = next_slot_of from in
      mapping.(s) <- !taker;
      counts.(from) <- counts.(from) - 1;
      counts.(!taker) <- counts.(!taker) + 1
    end
    else continue := false
  done;
  mapping
  end

let test_extend_matches_reference () =
  List.iter
    (fun (slots, from_groups, to_groups) ->
      let r = Router.create ~slots ~groups:from_groups () in
      check
        (Alcotest.array Alcotest.int)
        (Printf.sprintf "extend %d->%d over %d slots identical" from_groups
           to_groups slots)
        (reference_extend ~from_groups ~to_groups (Router.mapping r))
        (Router.mapping (Router.extend r ~groups:to_groups)))
    [
      (64, 1, 2);
      (64, 2, 3);
      (64, 2, 4);
      (64, 3, 8);
      (64, 4, 4);
      (8, 2, 5);
      (200, 3, 7);
      (512, 1, 16);
    ]

let extend_matches_reference_prop =
  QCheck.Test.make ~name:"extend matches the O(slots^2) reference" ~count:200
    QCheck.(triple (int_range 4 128) (int_range 1 4) (int_range 0 4))
    (fun (slots, from_groups, extra) ->
      QCheck.assume (slots >= from_groups + extra);
      let r = Router.create ~slots ~groups:from_groups () in
      let to_groups = from_groups + extra in
      reference_extend ~from_groups ~to_groups (Router.mapping r)
      = Router.mapping (Router.extend r ~groups:to_groups))

(* --- fault confinement ------------------------------------------------ *)

(* Same check as Harness.check_agreement, per group: correct replicas of one
   group never execute different batches at the same sequence number. *)
let check_group_agreement cluster =
  match Audit.agreement (Cluster.correct_replicas cluster) with
  | [] -> ()
  | (seq, _, _) :: _ -> Alcotest.failf "agreement violated at seq %d" seq

let test_fault_confinement () =
  (* Crash group 0's primary mid-run: group 0 must recover via view change
     while group 1 — same switch, same engine — never notices: every op
     completes and no replica of group 1 leaves view 0. *)
  let config = Config.make ~f:1 () in
  let rig =
    Rig.create ~seed:7 ~groups:2 ~config
      ~service:(fun ~group:_ _ -> Kv.service ())
      ()
  in
  let c0 = Rig.cluster rig 0 and c1 = Rig.cluster rig 1 in
  (* Early enough that most of the workload is still pending — 20 sequential
     ops span a few virtual milliseconds. *)
  Bft_sim.Engine.schedule (Rig.engine rig) ~delay:0.002 (fun () ->
      Cluster.crash_replica c0 0);
  let drive cluster count =
    let client = Cluster.add_client cluster in
    let completed = ref 0 in
    let rec loop k =
      if k > 0 then
        Client.invoke client
          (Kv.op_payload (Kv.Put (Printf.sprintf "k%d" k, "v")))
          (fun _ ->
            incr completed;
            loop (k - 1))
    in
    loop count;
    completed
  in
  let d0 = drive c0 20 and d1 = drive c1 20 in
  Rig.run ~until:30.0 rig;
  check Alcotest.int "group 1 unaffected: all ops complete" 20 !d1;
  Array.iter
    (fun r -> check Alcotest.int "group 1 stays in view 0" 0 (Replica.view r))
    (Cluster.replicas c1);
  check Alcotest.int "group 0 recovers and completes" 20 !d0;
  check Alcotest.bool "group 0 went through a view change" true
    (Array.exists (fun r -> Replica.view r > 0) (Cluster.replicas c0));
  check_group_agreement c0;
  check_group_agreement c1;
  check Alcotest.bool "shared profiler stays balanced" true
    (Bft_trace.Profile.balanced (Rig.profile rig))

let test_proxy_routing () =
  (* The proxy sends each op to the group the router names, and tallies it
     there. *)
  let config = Config.make ~f:1 () in
  let rig =
    Rig.create ~seed:11 ~groups:2 ~config
      ~service:(fun ~group:_ _ -> Kv.service ())
      ()
  in
  let proxy = Proxy.create rig in
  let keys = List.init 12 (fun i -> Printf.sprintf "route-%d" i) in
  let expect = Router.keys_per_group (Rig.router rig) ~keys in
  let rec go = function
    | [] -> ()
    | key :: rest ->
      let g = Proxy.group_of_op proxy (Kv.Get key) in
      check Alcotest.int
        (Printf.sprintf "router owns %s" key)
        (Router.group_of_key (Rig.router rig) key)
        g;
      Proxy.invoke proxy
        (Kv.Put (key, "v"))
        (fun outcome ->
          check Alcotest.int "outcome carries the owning group" g outcome.Proxy.group;
          go rest)
  in
  go keys;
  Rig.run ~until:30.0 rig;
  check Alcotest.int "all routed ops completed" 12 (Proxy.total_completed proxy);
  Array.iteri
    (fun g c ->
      check Alcotest.int
        (Printf.sprintf "group %d tally" g)
        c
        (Proxy.completed proxy).(g))
    expect

let test_proxy_backoff_streams_distinct () =
  (* Regression: backoff jitter used to be labelled by the first group's
     client id, which is a per-rig constant in spirit — the label must be
     the per-proxy ordinal so no two proxies share a jitter stream. *)
  let config = Config.make ~f:1 () in
  let rig =
    Rig.create ~seed:31 ~groups:2 ~config
      ~service:(fun ~group:_ _ -> Kv.service ())
      ()
  in
  let a = Proxy.create rig in
  let b = Proxy.create rig in
  check Alcotest.int "first proxy gets ordinal 0" 0 (Proxy.ordinal a);
  check Alcotest.int "second proxy gets ordinal 1" 1 (Proxy.ordinal b);
  (* Pin the labelling scheme: the stream is the pure fork of
     "proxy.backoff.<ordinal>", so an independent fork of the same label
     replays it draw for draw. *)
  let expected ordinal =
    let rng = Rig.fork_rng rig (Printf.sprintf "proxy.backoff.%d" ordinal) in
    List.init 6 (fun attempt ->
        Client.retry_backoff ~base:config.Config.client_retry_timeout ~cap:64.0
          ~rng ~attempt)
  in
  let drawn proxy = List.init 6 (fun attempt -> Proxy.next_backoff proxy ~attempt) in
  let sa = drawn a and sb = drawn b in
  check (Alcotest.list (Alcotest.float 0.0)) "proxy 0 stream pinned"
    (expected 0) sa;
  check (Alcotest.list (Alcotest.float 0.0)) "proxy 1 stream pinned"
    (expected 1) sb;
  check Alcotest.bool "the two proxies' backoff sequences differ" true
    (sa <> sb)

let test_proxy_shed_accounting () =
  (* Regression: the proxy used to count every rejected *attempt* in its
     shed tally, so one operation retried twice showed up as three sheds
     and the figure could not be compared to the clients' own per-operation
     rejection counts. [sheds] must count operations; [shed_attempts]
     keeps the attempt-granularity view. *)
  (* One request in flight, one queued, everything else shed — and
     [shed_retry_budget 0] pushes every Busy reply straight through the
     client to the proxy, so the proxy's own retry layer is what gets
     exercised. *)
  let config =
    Config.make ~f:1 ~admission_queue_limit:1 ~shed_policy:Config.Reject_new
      ~shed_retry_budget:0 ~batch_window:1 ~max_batch_requests:1 ()
  in
  let rig =
    Rig.create ~seed:37 ~groups:1 ~config
      ~service:(fun ~group:_ _ -> Kv.service ())
      ()
  in
  let proxies = Array.init 24 (fun _ -> Proxy.create ~retry_budget:2 rig) in
  let ops_per_proxy = 30 in
  let stored = ref 0 and busy = ref 0 in
  Array.iteri
    (fun i proxy ->
      let rec loop k =
        if k > 0 then
          Proxy.invoke proxy
            (Kv.Put (Printf.sprintf "p%d-%d" i k, "v"))
            (fun o ->
              (match o.Proxy.result with
              | Kv.Stored -> incr stored
              | Kv.Error "busy" -> incr busy
              | _ -> Alcotest.fail "unexpected result");
              loop (k - 1))
      in
      loop ops_per_proxy)
    proxies;
  Rig.run ~until:120.0 rig;
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 proxies in
  let sum_arr f =
    Array.fold_left (fun acc p -> acc + Array.fold_left ( + ) 0 (f p)) 0 proxies
  in
  check Alcotest.int "every operation resolved"
    (Array.length proxies * ops_per_proxy)
    (!stored + !busy);
  check Alcotest.bool "overload actually produced rejections" true
    (sum Proxy.total_shed_attempts > 0);
  (* The operation-granularity tally is exactly the busy completions. *)
  check Alcotest.int "sheds count operations, not attempts" !busy
    (sum Proxy.total_sheds);
  (* Attempt ledger: every rejected attempt either spent a retry or ended
     its operation. *)
  check Alcotest.int "attempt ledger exact"
    (sum Proxy.total_shed_attempts)
    (sum Proxy.total_sheds + sum_arr Proxy.shed_retries)

(* --- sharded throughput driver ---------------------------------------- *)

let test_sharded_throughput_deterministic () =
  let module Microbench = Bft_workloads.Microbench in
  let run () =
    Microbench.sharded_throughput ~seed:5 ~warmup:0.2 ~window:0.2 ~groups:2
      ~clients_per_group:4 ()
  in
  let a = run () and b = run () in
  check Alcotest.int "same completions" a.Microbench.sh_completed
    b.Microbench.sh_completed;
  check
    Alcotest.(array int)
    "same per-group split" a.Microbench.sh_per_group b.Microbench.sh_per_group;
  check Alcotest.bool "both groups made progress" true
    (Array.for_all (fun c -> c > 0) a.Microbench.sh_per_group);
  check Alcotest.int "no stalled proxies" 0 a.Microbench.sh_stalled_clients

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "shard"
    [
      ( "router",
        [
          q router_total_prop;
          q router_deterministic_prop;
          q router_extend_stability_prop;
          Alcotest.test_case "balance" `Quick test_router_balance;
          Alcotest.test_case "validation" `Quick test_router_validation;
          Alcotest.test_case "key tally" `Quick test_router_key_tally;
          Alcotest.test_case "extend matches reference" `Quick
            test_extend_matches_reference;
          q extend_matches_reference_prop;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "fault confinement" `Quick test_fault_confinement;
          Alcotest.test_case "proxy routing" `Quick test_proxy_routing;
          Alcotest.test_case "proxy backoff streams distinct" `Quick
            test_proxy_backoff_streams_distinct;
          Alcotest.test_case "proxy shed accounting" `Quick
            test_proxy_shed_accounting;
          Alcotest.test_case "sharded throughput deterministic" `Quick
            test_sharded_throughput_deterministic;
        ] );
    ]
