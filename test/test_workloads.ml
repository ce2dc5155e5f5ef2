(* Tests for the workload generators and the benchmark rigs. *)

module Andrew = Bft_workloads.Andrew
module Postmark = Bft_workloads.Postmark
module Nfs_rig = Bft_workloads.Nfs_rig
module Microbench = Bft_workloads.Microbench
module Report = Bft_workloads.Report
module Fs = Bft_nfs.Fs
module Proto = Bft_nfs.Proto
module Payload = Bft_core.Payload

let check = Alcotest.check

let calls_of steps =
  List.filter_map
    (function
      | Nfs_rig.Call c -> Some c
      | Nfs_rig.Compute _ | Nfs_rig.Phase _ -> None)
    steps

let count_by pred steps = List.length (List.filter pred (calls_of steps))

(* Replay a generated stream against a fresh file system: every call must
   succeed with the same file handles the generator predicted. *)
let replay_ok steps =
  let fs = Fs.create () in
  List.iter
    (fun call ->
      match Nfs_service_replay.execute fs call with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "replay failed: %s" msg)
    (calls_of steps)

let test_andrew_structure () =
  let profile = Andrew.andrew ~n:2 in
  let steps = Andrew.generate profile in
  let mkdirs = count_by (function Proto.Mkdir _ -> true | _ -> false) steps in
  let creates = count_by (function Proto.Create _ -> true | _ -> false) steps in
  let writes = count_by (function Proto.Write _ -> true | _ -> false) steps in
  let lookups = count_by (function Proto.Lookup _ -> true | _ -> false) steps in
  check Alcotest.int "dirs per copy" (2 * profile.Andrew.dirs_per_copy) mkdirs;
  check Alcotest.int "sources + objects"
    (2 * (profile.Andrew.files_per_copy + 10))
    creates;
  check Alcotest.bool "bulk writes" true (writes > 100);
  check Alcotest.bool "stat+read lookups" true
    (lookups >= 2 * 2 * profile.Andrew.files_per_copy)

let test_andrew_deterministic () =
  let profile = Andrew.andrew ~n:1 in
  let a = Andrew.generate profile and b = Andrew.generate profile in
  check Alcotest.int "same length" (List.length a) (List.length b);
  check Alcotest.bool "identical" true (a = b)

let test_andrew_replays () = replay_ok (Andrew.generate (Andrew.andrew ~n:2))

let test_andrew_cache_model () =
  (* When the data set exceeds the client cache, the read phase emits far
     more READ calls. *)
  let small = Andrew.generate (Andrew.andrew ~n:2) in
  let big =
    Andrew.generate { (Andrew.andrew ~n:2) with Andrew.client_mem = 1024 }
  in
  let reads steps = count_by (function Proto.Read _ -> true | _ -> false) steps in
  check Alcotest.bool "uncached reads dominate" true (reads big > 3 * reads small)

let test_postmark_structure () =
  let profile = Postmark.scaled ~files:50 ~transactions:100 in
  let steps, txns = Postmark.generate profile in
  check Alcotest.int "transactions reported" 100 txns;
  let creates = count_by (function Proto.Create _ -> true | _ -> false) steps in
  let removes = count_by (function Proto.Remove _ -> true | _ -> false) steps in
  check Alcotest.bool "pool created" true (creates >= 50);
  check Alcotest.bool "some deletes" true (removes > 5);
  check Alcotest.bool "file sizes within bounds" true
    (List.for_all
       (function
         | Proto.Write { data; _ } ->
           Payload.size data <= profile.Postmark.write_buffer
         | _ -> true)
       (calls_of steps))

let test_postmark_replays () =
  replay_ok (fst (Postmark.generate (Postmark.scaled ~files:30 ~transactions:60)))

let test_postmark_deterministic () =
  let p = Postmark.scaled ~files:20 ~transactions:40 in
  check Alcotest.bool "identical" true
    (fst (Postmark.generate p) = fst (Postmark.generate p))

let run_rig backend =
  let rig = Nfs_rig.make backend () in
  let steps =
    [
      Nfs_rig.Call (Proto.Mkdir { dir = Fs.root; name = "d"; mode = 0o755 });
      Nfs_rig.Compute 0.001;
      Nfs_rig.Call (Proto.Create { dir = 2; name = "f"; mode = 0o644 });
      Nfs_rig.Call (Proto.Write { fh = 3; off = 0; data = Payload.of_string "x" });
      Nfs_rig.Call (Proto.Read { fh = 3; off = 0; len = 10 });
    ]
  in
  let result = ref None in
  Nfs_rig.run rig ~on_done:(fun ~elapsed ~calls -> result := Some (elapsed, calls)) steps;
  Bft_sim.Engine.run ~until:30.0 (Nfs_rig.engine rig);
  match !result with
  | None -> Alcotest.failf "%s rig did not finish" (Nfs_rig.backend_name backend)
  | Some (elapsed, calls) ->
    check Alcotest.int "calls counted" 4 calls;
    check Alcotest.bool "compute included" true (elapsed >= 0.001);
    (* the write really happened on the server file system *)
    check Alcotest.int "file written" 1
      (match Fs.getattr (Nfs_rig.server_fs rig) 3 with
      | Ok a -> a.Fs.size
      | Error _ -> -1);
    elapsed

let test_rig_backends () =
  let bfs = run_rig Nfs_rig.Bfs in
  let norep = run_rig Nfs_rig.Norep_fs in
  let std = run_rig Nfs_rig.Nfs_std_fs in
  check Alcotest.bool "bfs slowest" true (bfs > norep && bfs > std)

let test_microbench_latency_sane () =
  let b = Microbench.bft_latency ~ops:20 ~arg:8 ~res:8 ~read_only:false () in
  let n = Microbench.norep_latency ~ops:20 ~arg:8 ~res:8 () in
  check Alcotest.int "all measured" 20 b.Microbench.ops;
  check Alcotest.bool "bft slower than no-rep" true
    (b.Microbench.mean > n.Microbench.mean);
  check Alcotest.bool "both sub-millisecond-ish" true
    (b.Microbench.mean < 0.002 && n.Microbench.mean < 0.001)

let test_microbench_throughput_sane () =
  let t =
    Microbench.bft_throughput ~warmup:0.2 ~window:0.3 ~arg:0 ~res:0
      ~read_only:false ~clients:10 ()
  in
  check Alcotest.bool "positive" true (t.Microbench.ops_per_sec > 1000.0);
  check Alcotest.int "no stalls" 0 t.Microbench.stalled_clients

(* The closed loop's stall rule (paper Figure 4): past ~15 clients the
   NO-REP server's small socket buffer overflows on 4 KB requests, and
   without retransmission a lost request stalls its client for good. Once
   more than a quarter of the clients stall the point is not plotted. *)
let test_microbench_norep_stall () =
  let clients = 40 in
  let t =
    Microbench.norep_throughput ~retry:false ~arg:4096 ~res:0 ~clients ()
  in
  check Alcotest.bool "over a quarter stalled" true
    (t.Microbench.stalled_clients * 4 > clients);
  check Alcotest.bool "not plotted" true (Float.is_nan t.Microbench.ops_per_sec)

let test_report_anchors () =
  let a =
    Report.ratio_anchor ~description:"d" ~paper_ratio:2.0 ~measured:2.2
      ~tolerance:0.15
  in
  check Alcotest.bool "within tolerance" true a.Report.ok;
  let b =
    Report.ratio_anchor ~description:"d" ~paper_ratio:2.0 ~measured:3.0
      ~tolerance:0.15
  in
  check Alcotest.bool "outside tolerance" false b.Report.ok;
  let c =
    Report.ratio_anchor ~description:"d" ~paper_ratio:2.0 ~measured:nan
      ~tolerance:0.15
  in
  check Alcotest.bool "nan fails" false c.Report.ok

let () =
  Alcotest.run "workloads"
    [
      ( "andrew",
        [
          Alcotest.test_case "structure" `Quick test_andrew_structure;
          Alcotest.test_case "deterministic" `Quick test_andrew_deterministic;
          Alcotest.test_case "replays cleanly" `Quick test_andrew_replays;
          Alcotest.test_case "cache model" `Quick test_andrew_cache_model;
        ] );
      ( "postmark",
        [
          Alcotest.test_case "structure" `Quick test_postmark_structure;
          Alcotest.test_case "replays cleanly" `Quick test_postmark_replays;
          Alcotest.test_case "deterministic" `Quick test_postmark_deterministic;
        ] );
      ( "rigs",
        [ Alcotest.test_case "all three backends" `Quick test_rig_backends ] );
      ( "microbench",
        [
          Alcotest.test_case "latency sane" `Quick test_microbench_latency_sane;
          Alcotest.test_case "throughput sane" `Quick test_microbench_throughput_sane;
          Alcotest.test_case "NO-REP stalls past its cliff" `Quick
            test_microbench_norep_stall;
        ] );
      ("report", [ Alcotest.test_case "anchors" `Quick test_report_anchors ]);
    ]
