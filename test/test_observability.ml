(* Tests for the observability stack built on the trace layer: causal
   request DAGs (span ids, completeness, determinism), the virtual-time CPU
   profiler (exact balance against engine busy time), crypto operation
   tallies, the Chrome-trace / time-series exports (ring mechanics,
   golden files, byte-identical determinism), and the run bundle that
   writes them all (byte-identical per seed, pure observation). *)

module Trace = Bft_trace.Trace
module Span = Bft_trace.Span
module Profile = Bft_trace.Profile
module Chrome = Bft_trace.Chrome
module Series = Bft_trace.Series
module Monitor = Bft_trace.Monitor
module Run_bundle = Bft_trace.Run_bundle
module Cpu = Bft_sim.Cpu
module Microbench = Bft_workloads.Microbench

let check = Alcotest.check

(* --- shared rigs ---------------------------------------------------------- *)

let traced_run ?(ops = 40) ?(seed = 7) () =
  let trace = Trace.create ~capacity:(1 lsl 20) () in
  let r =
    Microbench.bft_latency ~ops ~seed ~trace ~arg:0 ~res:0 ~read_only:false ()
  in
  (r, trace)

let profiled_run ?series_every ?(ops = 40) ?(seed = 7) () =
  let trace = Trace.create ~capacity:(1 lsl 20) () in
  let pr =
    Microbench.bft_profile ?series_every ~ops ~seed ~trace ~arg:0 ~res:0
      ~read_only:false ()
  in
  (pr, trace)

(* A small hand-built trace with a fixed, known event sequence: one request
   ordered at (view 0, seq 1) by a two-replica toy cluster, one retransmit,
   a view change and a stable checkpoint. Used for the export golden files
   so they do not depend on simulation floats. *)
let small_events () =
  let t = Trace.create () in
  let req = Trace.req_id ~client:2 ~ts:1L in
  Trace.emit t ~vtime:0.000010 ~node:2 ~req_id:req ~detail:"read-write"
    Trace.Client_send;
  Trace.emit t ~vtime:0.000020 ~node:0 ~req_id:req ~view:0 ~detail:"primary"
    Trace.Request_recv;
  Trace.emit t ~vtime:0.000030 ~node:0 ~view:0 ~seqno:1 ~detail:"1"
    Trace.Preprepare_sent;
  Trace.emit t ~vtime:0.000040 ~node:1 ~view:0 ~seqno:1
    Trace.Preprepare_accepted;
  Trace.emit t ~vtime:0.000050 ~node:1 ~view:0 ~seqno:1 Trace.Prepared;
  Trace.emit t ~vtime:0.000055 ~node:0 ~view:0 ~seqno:1 Trace.Prepared;
  Trace.emit t ~vtime:0.000060 ~node:0 ~req_id:req ~view:0
    ~detail:"tentative" Trace.Exec_request;
  Trace.emit t ~vtime:0.000060 ~node:0 ~view:0 ~seqno:1 ~detail:"1"
    Trace.Exec_tentative;
  Trace.emit t ~vtime:0.000061 ~node:1 ~req_id:req ~view:0
    ~detail:"tentative" Trace.Exec_request;
  Trace.emit t ~vtime:0.000061 ~node:1 ~view:0 ~seqno:1 ~detail:"1"
    Trace.Exec_tentative;
  Trace.emit t ~vtime:0.000065 ~node:0 ~req_id:req ~view:0 Trace.Reply_sent;
  Trace.emit t ~vtime:0.000066 ~node:1 ~req_id:req ~view:0 Trace.Reply_sent;
  Trace.emit t ~vtime:0.000070 ~node:2 ~req_id:req Trace.Client_retransmit;
  Trace.emit t ~vtime:0.000080 ~node:0 ~view:0 ~seqno:1 Trace.Committed;
  Trace.emit t ~vtime:0.000081 ~node:1 ~view:0 ~seqno:1 Trace.Committed;
  Trace.emit t ~vtime:0.000082 ~node:0 ~view:0 ~seqno:1 ~detail:"1"
    Trace.Exec_final;
  Trace.emit t ~vtime:0.000090 ~node:2 ~req_id:req ~detail:"1"
    Trace.Client_deliver;
  Trace.emit t ~vtime:0.000100 ~node:1 ~view:1 Trace.Viewchange_start;
  Trace.emit t ~vtime:0.000150 ~node:1 ~view:1 Trace.Viewchange_end;
  Trace.emit t ~vtime:0.000200 ~node:0 ~seqno:1 Trace.Checkpoint_stable;
  Trace.events t

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- span ids ------------------------------------------------------------- *)

let test_span_ids () =
  let id = Span.id ~req:42L ~view:0 ~seq:1 ~phase:Span.Prepare in
  check Alcotest.bool "deterministic" true
    (Int64.equal id (Span.id ~req:42L ~view:0 ~seq:1 ~phase:Span.Prepare));
  let distinct =
    [
      Span.id ~req:42L ~view:0 ~seq:1 ~phase:Span.Commit;
      Span.id ~req:42L ~view:1 ~seq:1 ~phase:Span.Prepare;
      Span.id ~req:42L ~view:0 ~seq:2 ~phase:Span.Prepare;
      Span.id ~req:43L ~view:0 ~seq:1 ~phase:Span.Prepare;
    ]
  in
  List.iter
    (fun other -> check Alcotest.bool "field changes id" false (Int64.equal id other))
    distinct

(* --- DAG completeness ----------------------------------------------------- *)

let test_dag_complete () =
  let r, trace = traced_run () in
  let dag = Span.of_events (Trace.events trace) in
  check Alcotest.int "every issued request appears"
    (Microbench.latency_warmup + r.Microbench.ops)
    (List.length (Span.requests dag));
  check Alcotest.int "every request delivered"
    (List.length (Span.requests dag))
    (List.length (Span.delivered dag));
  check
    (Alcotest.list (Alcotest.pair Alcotest.int64 Alcotest.string))
    "no offenders" [] (Span.check dag);
  check Alcotest.bool "complete" true (Span.complete dag);
  check Alcotest.bool "has edges" true (Span.edge_count dag > 0)

let test_dag_deterministic () =
  let _, t1 = traced_run () in
  let _, t2 = traced_run () in
  let d1 = Span.of_events (Trace.events t1) in
  let d2 = Span.of_events (Trace.events t2) in
  check Alcotest.string "same summary" (Span.summary d1) (Span.summary d2);
  check
    (Alcotest.list Alcotest.int64)
    "same span ids in same order"
    (List.map (fun s -> s.Span.sp_id) (Span.spans d1))
    (List.map (fun s -> s.Span.sp_id) (Span.spans d2))

let test_dag_small_trace () =
  let dag = Span.of_events (small_events ()) in
  check Alcotest.bool "complete" true (Span.complete dag);
  check Alcotest.int "one request" 1 (List.length (Span.requests dag));
  check Alcotest.int "delivered" 1 (List.length (Span.delivered dag));
  (* The retransmit folds into the request span instead of creating one. *)
  let req = Trace.req_id ~client:2 ~ts:1L in
  match Span.find dag (Span.id ~req ~view:(-1) ~seq:(-1) ~phase:Span.Request) with
  | None -> Alcotest.fail "request span missing"
  | Some s ->
    check Alcotest.int "retransmit folded in" 2 s.Span.sp_events;
    check Alcotest.int "request span bound to seq" 1 s.Span.sp_seq

(* Completeness must also hold under faults: run chaos campaigns (loss,
   partitions, view changes, retransmissions) with a live trace and check
   every delivered request stays reachable from its request span. *)
let test_dag_complete_under_faults () =
  let module Plan = Bft_chaos.Plan in
  let module Campaign = Bft_chaos.Campaign in
  List.iter
    (fun seed ->
      let rng = Bft_util.Rng.of_int seed in
      let plan = Plan.generate ~rng ~n:4 ~f:1 ~horizon:3.0 () in
      let trace = Trace.create ~capacity:(1 lsl 21) () in
      let outcome = Campaign.run ~trace ~seed ~plan () in
      check Alcotest.bool
        (Printf.sprintf "campaign seed %d passes" seed)
        false (Campaign.failed outcome);
      let dag = Span.of_events (Trace.events trace) in
      check Alcotest.bool
        (Printf.sprintf "DAG complete under faults (seed %d)" seed)
        true (Span.complete dag);
      check Alcotest.bool
        (Printf.sprintf "deliveries traced (seed %d)" seed)
        true
        (List.length (Span.delivered dag) > 0))
    [ 3; 11 ]

let test_dag_completeness_property =
  QCheck.Test.make ~count:6 ~name:"DAG complete for arbitrary seeds"
    QCheck.(int_bound 1000)
    (fun seed ->
      let _, trace = traced_run ~ops:10 ~seed () in
      Span.complete (Span.of_events (Trace.events trace)))

(* --- CPU profiler --------------------------------------------------------- *)

let test_profile_balance_exact () =
  let pr, _ = profiled_run () in
  let p = pr.Microbench.pf_profile in
  check Alcotest.bool "balanced" true (Profile.balanced p);
  List.iter
    (fun n ->
      (* Exact float equality, not a tolerance: the profiler must account
         for every charged cycle. *)
      check Alcotest.bool
        (Printf.sprintf "%s: category sum = busy time" n.Profile.pn_name)
        true
        (Profile.node_total n = n.Profile.pn_busy))
    (Profile.nodes p);
  check Alcotest.int "category arity" Cpu.num_categories
    (Array.length (Profile.totals p));
  check Alcotest.bool "cluster total positive" true (Profile.total_busy p > 0.0)

let test_profile_categories_populated () =
  let pr, _ = profiled_run () in
  let p = pr.Microbench.pf_profile in
  let totals = Profile.totals p in
  let nonzero cat =
    totals.(Cpu.category_index cat) > 0.0
  in
  check Alcotest.bool "mac_gen charged" true (nonzero Cpu.Mac_gen);
  check Alcotest.bool "mac_verify charged" true (nonzero Cpu.Mac_verify);
  check Alcotest.bool "digest charged" true (nonzero Cpu.Digest);
  check Alcotest.bool "encode charged" true (nonzero Cpu.Encode);
  check Alcotest.bool "decode charged" true (nonzero Cpu.Decode);
  check Alcotest.bool "other charged" true (nonzero Cpu.Other);
  let shares =
    Array.to_list (Array.mapi (fun i _ -> Profile.share p i) totals)
  in
  check (Alcotest.float 1e-9) "shares sum to 1" 1.0
    (List.fold_left ( +. ) 0.0 shares)

let test_profile_unbalanced_detected () =
  let p =
    Profile.make ~labels:[| "a"; "b" |]
      [ ("node0", [| 1.0; 2.0 |], 3.5) ]
  in
  check Alcotest.bool "imbalance detected" false (Profile.balanced p);
  check Alcotest.bool "arity mismatch raises" true
    (try
       ignore (Profile.make ~labels:[| "a" |] [ ("n", [| 1.0; 2.0 |], 3.0) ]);
       false
     with Invalid_argument _ -> true)

let test_crypto_tally () =
  let pr1, _ = profiled_run () in
  let pr2, _ = profiled_run () in
  let c = pr1.Microbench.pf_crypto in
  let module Tally = Bft_crypto.Tally in
  check Alcotest.bool "mac generations counted" true (c.Tally.mac_gen_ops > 0);
  check Alcotest.bool "mac verifications counted" true
    (c.Tally.mac_verify_ops > 0);
  check Alcotest.bool "digests counted" true (c.Tally.digest_ops > 0);
  check Alcotest.bool "bytes accumulated" true (c.Tally.digest_bytes > 0);
  check Alcotest.int "same seed, same mac count" c.Tally.mac_gen_ops
    pr2.Microbench.pf_crypto.Tally.mac_gen_ops;
  check Alcotest.int "same seed, same digest count" c.Tally.digest_ops
    pr2.Microbench.pf_crypto.Tally.digest_ops

(* --- Chrome export -------------------------------------------------------- *)

let test_chrome_golden () =
  check Alcotest.string "matches golden/chrome_small.json"
    (read_file "golden/chrome_small.json")
    (Chrome.of_events (small_events ()))

let test_chrome_deterministic () =
  let _, t1 = traced_run () in
  let _, t2 = traced_run () in
  let c1 = Chrome.of_events (Trace.events t1) in
  check Alcotest.bool "nonempty" true (String.length c1 > 2);
  check Alcotest.string "same seed, byte-identical"
    c1
    (Chrome.of_events (Trace.events t2));
  let _, t3 = traced_run ~seed:8 () in
  check Alcotest.bool "different seed, different export" true
    (c1 <> Chrome.of_events (Trace.events t3))

(* --- time series ---------------------------------------------------------- *)

let test_series_ring () =
  let s = Series.create ~capacity:4 ~names:[| "a"; "b" |] () in
  for i = 1 to 10 do
    Series.record s ~vtime:(float_of_int i) [| float_of_int i; 0.0 |]
  done;
  check Alcotest.int "length capped" 4 (Series.length s);
  check Alcotest.int "total counts all" 10 (Series.total s);
  check Alcotest.int "dropped" 6 (Series.dropped s);
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "oldest evicted first" [ 7.0; 8.0; 9.0; 10.0 ]
    (List.map fst (Series.samples s));
  check Alcotest.bool "arity mismatch raises" true
    (try
       Series.record s ~vtime:11.0 [| 1.0 |];
       false
     with Invalid_argument _ -> true);
  (* The recorded array is copied, not aliased. *)
  let v = [| 1.0; 2.0 |] in
  Series.record s ~vtime:11.0 v;
  v.(0) <- 99.0;
  let _, last = List.nth (Series.samples s) (Series.length s - 1) in
  check (Alcotest.float 1e-9) "values copied" 1.0 last.(0)

let test_series_golden () =
  let s = Series.create ~names:[| "ops"; "busy \"quoted\"" |] () in
  Series.record s ~vtime:0.001 [| 10.0; 0.000123456 |];
  Series.record s ~vtime:0.002 [| 20.0; 0.000246912 |];
  Series.record s ~vtime:0.003 [| 30.0; 1234567.0 |];
  check Alcotest.string "matches golden/series_small.jsonl"
    (read_file "golden/series_small.jsonl")
    (Series.jsonl s)

let test_series_sampling_deterministic () =
  let run () =
    let pr, _ = profiled_run ~series_every:0.001 () in
    match pr.Microbench.pf_series with
    | None -> Alcotest.fail "series expected"
    | Some s -> s
  in
  let s1 = run () and s2 = run () in
  check Alcotest.bool "samples taken" true (Series.total s1 > 0);
  check Alcotest.string "same seed, byte-identical jsonl" (Series.jsonl s1)
    (Series.jsonl s2);
  (* The sampler stops with the workload instead of keeping the engine
     alive to its horizon: well under 1000 samples at 1 ms cadence. *)
  check Alcotest.bool "sampler stops with the workload" true
    (Series.total s1 < 1000)

(* --- run bundle ------------------------------------------------------------ *)

(* One observed latency run written as a bundle: trace, series, profile and
   the health files of an attached monitor. *)
let write_observed_bundle dir =
  let monitor = Monitor.create () in
  let trace = Trace.create ~capacity:(1 lsl 20) () in
  let pr =
    Microbench.bft_profile ~series_every:0.001 ~ops:40 ~seed:7 ~trace ~monitor
      ~arg:0 ~res:0 ~read_only:false ()
  in
  Run_bundle.write ~seed:7 ~trace ?series:pr.Microbench.pf_series
    ~profile:pr.Microbench.pf_profile ~health:[ Monitor.summary monitor ]
    ~alerts:(Monitor.alerts monitor) () ~dir ~subcommand:"test"
    ~cost_profile:"testbed-2001"

let test_bundle_deterministic () =
  let fresh () = Filename.temp_dir "bundle" "" in
  let d1 = fresh () and d2 = fresh () in
  let files = write_observed_bundle d1 in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "same files, same line counts" files (write_observed_bundle d2);
  check (Alcotest.list Alcotest.string) "layout"
    [
      "alerts.json";
      "chrome.json";
      "health.txt";
      "manifest.json";
      "profile.jsonl";
      "series.jsonl";
      "trace.jsonl";
    ]
    (List.sort compare (Array.to_list (Sys.readdir d1)));
  Array.iter
    (fun name ->
      let file d = read_file (Filename.concat d name) in
      check Alcotest.bool (name ^ " nonempty") true (file d1 <> "");
      check Alcotest.string (name ^ " byte-identical") (file d1) (file d2))
    (Sys.readdir d1);
  check Alcotest.bool "manifest names the trace" true
    (let m = read_file (Filename.concat d1 "manifest.json") in
     let needle = "{\"name\":\"trace.jsonl\",\"lines\":" in
     let rec has i =
       i + String.length needle <= String.length m
       && (String.sub m i (String.length needle) = needle || has (i + 1))
     in
     has 0);
  List.iter
    (fun d ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    [ d1; d2 ]

(* Observation is pure: the trace ring and the monitor change no measured
   number of a closed-loop run. *)
let test_bundle_recorders_pure () =
  let run ?trace ?monitor () =
    let r =
      Microbench.bft_throughput ?trace ?monitor ~warmup:0.1 ~window:0.2 ~arg:0
        ~res:0 ~read_only:false ~clients:8 ()
    in
    (r.Microbench.completed, r.Microbench.ops_per_sec)
  in
  let bare = run () in
  let observed =
    run ~trace:(Trace.create ~capacity:(1 lsl 20) ()) ~monitor:(Monitor.create ()) ()
  in
  check Alcotest.bool "completed something" true (fst bare > 0);
  check Alcotest.int "same completed" (fst bare) (fst observed);
  check Alcotest.bool "same ops/s, bit for bit" true
    (Int64.equal (Int64.bits_of_float (snd bare)) (Int64.bits_of_float (snd observed)))

let () =
  Alcotest.run "observability"
    [
      ( "span",
        [
          Alcotest.test_case "span ids" `Quick test_span_ids;
          Alcotest.test_case "DAG complete" `Quick test_dag_complete;
          Alcotest.test_case "DAG deterministic" `Quick test_dag_deterministic;
          Alcotest.test_case "hand-built trace" `Quick test_dag_small_trace;
          Alcotest.test_case "complete under faults" `Slow
            test_dag_complete_under_faults;
          QCheck_alcotest.to_alcotest test_dag_completeness_property;
        ] );
      ( "profile",
        [
          Alcotest.test_case "balance is exact" `Quick
            test_profile_balance_exact;
          Alcotest.test_case "categories populated" `Quick
            test_profile_categories_populated;
          Alcotest.test_case "imbalance detected" `Quick
            test_profile_unbalanced_detected;
          Alcotest.test_case "crypto tally" `Quick test_crypto_tally;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "golden file" `Quick test_chrome_golden;
          Alcotest.test_case "deterministic" `Quick test_chrome_deterministic;
        ] );
      ( "series",
        [
          Alcotest.test_case "ring mechanics" `Quick test_series_ring;
          Alcotest.test_case "golden file" `Quick test_series_golden;
          Alcotest.test_case "sampling deterministic" `Quick
            test_series_sampling_deterministic;
        ] );
      ( "run bundle",
        [
          Alcotest.test_case "same seed, byte-identical directory" `Quick
            test_bundle_deterministic;
          Alcotest.test_case "recorders are pure" `Quick
            test_bundle_recorders_pure;
        ] );
    ]
