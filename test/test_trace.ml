(* Tests for the deterministic tracing layer: sink mechanics (ring buffer,
   nil sink), determinism of the JSONL export, timeline folding, and the
   zero-impact guarantee when tracing is disabled. *)

module Trace = Bft_trace.Trace
module Timeline = Bft_trace.Timeline
module Microbench = Bft_workloads.Microbench
module Stats = Bft_util.Stats

let check = Alcotest.check

(* --- sink mechanics ----------------------------------------------------- *)

let test_ring_eviction () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit t ~vtime:(float_of_int i) ~node:i Trace.Client_send
  done;
  check Alcotest.int "length capped" 4 (Trace.length t);
  check Alcotest.int "total counts all" 10 (Trace.total t);
  check Alcotest.int "dropped = total - length" 6 (Trace.dropped t);
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "oldest evicted first" [ 7.0; 8.0; 9.0; 10.0 ]
    (List.map (fun (e : Trace.event) -> e.Trace.vtime) (Trace.events t));
  Trace.clear t;
  check Alcotest.int "clear empties" 0 (Trace.length t);
  check Alcotest.int "clear resets total" 0 (Trace.total t)

let test_nil_sink () =
  check Alcotest.bool "nil disabled" false (Trace.enabled Trace.nil);
  Trace.emit Trace.nil ~vtime:1.0 ~node:0 Trace.Prepared;
  check Alcotest.int "nil records nothing" 0 (Trace.total Trace.nil);
  check Alcotest.string "nil jsonl empty" "" (Trace.jsonl Trace.nil)

let test_req_id () =
  let a = Trace.req_id ~client:4 ~ts:1L in
  let b = Trace.req_id ~client:4 ~ts:2L in
  let c = Trace.req_id ~client:5 ~ts:1L in
  check Alcotest.bool "distinct ts" true (a <> b);
  check Alcotest.bool "distinct client" true (a <> c);
  check Alcotest.bool "positive" true (Int64.compare a 0L > 0)

let test_jsonl_escaping () =
  let t = Trace.create () in
  Trace.emit t ~vtime:0.5 ~node:1 ~detail:"a\"b\\c\nd" Trace.Net_drop;
  let line = Trace.jsonl t in
  check Alcotest.string "escaped detail"
    "{\"t\":0.500000000,\"node\":1,\"kind\":\"net.drop\",\"seq\":-1,\"view\":-1,\"req\":-1,\"detail\":\"a\\\"b\\\\c\\nd\"}\n"
    line

(* --- determinism --------------------------------------------------------- *)

let traced_run ?(seed = 7) () =
  let trace = Trace.create ~capacity:(1 lsl 20) () in
  let r =
    Microbench.bft_latency ~ops:40 ~seed ~trace ~arg:0 ~res:0 ~read_only:false
      ()
  in
  (r, trace)

let test_deterministic_jsonl () =
  let _, t1 = traced_run () in
  let _, t2 = traced_run () in
  check Alcotest.bool "some events" true (Trace.total t1 > 0);
  check Alcotest.int "no eviction in this run" 0 (Trace.dropped t1);
  check Alcotest.string "same seed, byte-identical jsonl" (Trace.jsonl t1)
    (Trace.jsonl t2);
  let _, t3 = traced_run ~seed:8 () in
  check Alcotest.bool "different seed, different trace" true
    (Trace.jsonl t1 <> Trace.jsonl t3)

(* --- timeline folding ---------------------------------------------------- *)

let test_timeline_monotone_and_telescoping () =
  let r, trace = traced_run () in
  let tl = Timeline.of_trace ~skip:Microbench.latency_warmup trace in
  check Alcotest.int "all measured requests folded" r.Microbench.ops
    tl.Timeline.requests;
  check Alcotest.int "nothing incomplete" 0 tl.Timeline.incomplete;
  check Alcotest.bool "phases monotone" true (Timeline.monotone tl);
  (* The four phases telescope: their per-request sum is the end-to-end
     latency, so the means agree with the microbench's measurement. *)
  check (Alcotest.float 1e-9) "phase sum = measured mean" r.Microbench.mean
    (Stats.mean tl.Timeline.end_to_end);
  List.iter
    (fun (name, stats) ->
      check Alcotest.int
        (Printf.sprintf "%s covers every request" name)
        tl.Timeline.requests (Stats.count stats))
    (Timeline.phases tl)

let test_timeline_skip () =
  let _, trace = traced_run () in
  let all = Timeline.of_trace trace in
  let skipped = Timeline.of_trace ~skip:5 trace in
  check Alcotest.int "skip drops requests" (all.Timeline.requests - 5)
    skipped.Timeline.requests

(* Every phase statistic of the [bft_lab trace --ops 100] runs, floats in
   hex so a change in summation order shows. The 4096-event ring evicts
   the oldest events, leaving requests with missing boundaries. *)
let timeline_dump ~arg ~capacity =
  let trace = Trace.create ~capacity () in
  ignore
    (Microbench.bft_profile ~arg ~res:0 ~ops:100 ~seed:42 ~trace
       ~read_only:false ~series_every:0.001 ());
  let tl = Timeline.of_trace ~skip:Microbench.latency_warmup trace in
  let b = Buffer.create 1024 in
  Printf.bprintf b "arg=%d capacity=%d requests=%d incomplete=%d\n" arg capacity
    tl.Timeline.requests tl.Timeline.incomplete;
  List.iter
    (fun (name, s) ->
      Printf.bprintf b "  %s n=%d mean=%h min=%h max=%h p50=%h p99=%h\n" name
        (Stats.count s) (Stats.mean s) (Stats.min s) (Stats.max s)
        (Stats.p50 s) (Stats.p99 s))
    (Timeline.phases tl);
  Buffer.contents b

let test_timeline_pinned () =
  let actual =
    String.concat ""
      [
        timeline_dump ~arg:0 ~capacity:(1 lsl 20);
        timeline_dump ~arg:4096 ~capacity:(1 lsl 20);
        timeline_dump ~arg:0 ~capacity:4096;
      ]
  in
  check Alcotest.string "matches golden/timeline_phases.txt"
    (In_channel.with_open_bin "golden/timeline_phases.txt" In_channel.input_all)
    actual

(* --- disabled tracing has no effect -------------------------------------- *)

let test_disabled_is_free () =
  let plain =
    Microbench.bft_latency ~ops:40 ~seed:7 ~arg:0 ~res:0 ~read_only:false ()
  in
  let traced, trace = traced_run () in
  check Alcotest.int "nil sink sees nothing" 0 (Trace.total Trace.nil);
  (* Tracing must not perturb the simulation: virtual-time results are
     identical with tracing on and off. *)
  check (Alcotest.float 0.0) "identical mean" plain.Microbench.mean
    traced.Microbench.mean;
  check (Alcotest.float 0.0) "identical stddev" plain.Microbench.stddev
    traced.Microbench.stddev;
  check Alcotest.bool "trace recorded meanwhile" true (Trace.total trace > 0)

let () =
  Alcotest.run "trace"
    [
      ( "sink",
        [
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "nil sink" `Quick test_nil_sink;
          Alcotest.test_case "req_id" `Quick test_req_id;
          Alcotest.test_case "jsonl escaping" `Quick test_jsonl_escaping;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical jsonl" `Quick
            test_deterministic_jsonl;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "monotone and telescoping" `Quick
            test_timeline_monotone_and_telescoping;
          Alcotest.test_case "skip" `Quick test_timeline_skip;
          Alcotest.test_case "phase statistics pinned" `Quick
            test_timeline_pinned;
        ] );
      ( "disabled",
        [ Alcotest.test_case "no effect on results" `Quick test_disabled_is_free ] );
    ]
