(* The repository's benchmark: a two-clock performance ledger.

   One workload per process:
     ledger.exe --workload NAME --seed N --seconds S --trace 0|1
   prints, as its last line, one JSON object
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
   holding every end-to-end metric (--trace 0) or every per-layer metric
   (--trace 1), and exits non-zero when an audit fails.

   Tools built on it, each running workloads as child processes:
     ledger.exe all --seed N [--seconds S] [--trace 0|1]
     ledger.exe noise --runs N [--seed N] [--seconds S]
     ledger.exe selftest --benchmark BENCHMARK.json

   README.md documents the workloads, every metric and how to read the
   traced run. *)

module W = Workload
module Engine = Bft_sim.Engine
module Stats = Bft_util.Stats

(* --- metric tables ------------------------------------------------------------ *)

let end_to_end =
  [
    ("wall_ops_s", "ops/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("virt_ops_s", "ops/s");
    ("virt_p50_us", "us");
    ("virt_p99_us", "us");
    ("virt_unavail_ms", "ms");
  ]

let per_layer =
  [
    ("sim.events_per_op", "events/op");
    ("sim.ns_per_event", "ns");
    ("sim.pending_peak", "events");
    ("sim.sched_step_ns", "ns");
    ("sim.primary_util", "ratio");
    ("sim.cpu_us_per_op.mac_gen", "us/op");
    ("sim.cpu_us_per_op.mac_verify", "us/op");
    ("sim.cpu_us_per_op.digest", "us/op");
    ("sim.cpu_us_per_op.encode", "us/op");
    ("sim.cpu_us_per_op.decode", "us/op");
    ("sim.cpu_us_per_op.exec", "us/op");
    ("sim.cpu_us_per_op.other", "us/op");
    ("net.datagrams_per_op", "datagrams/op");
    ("net.bytes_per_op", "B/op");
    ("net.drops_per_kop", "drops/kop");
    ("crypto.mac_gen_per_op", "macs/op");
    ("crypto.mac_verify_per_op", "macs/op");
    ("crypto.mac_ns", "ns");
    ("crypto.digest_bytes_per_op", "B/op");
    ("crypto.md5_ns_per_kb", "ns/KB");
    ("crypto.wall_share", "ratio");
    ("codec.encode_ns", "ns");
    ("codec.decode_ns", "ns");
    ("codec.wall_share", "ratio");
    ("replica.batch_size", "requests");
    ("replica.checkpoints_per_kop", "ckpts/kop");
    ("replica.view_changes", "count");
    ("replica.phase_us.client_to_primary", "us");
    ("replica.phase_us.ordering", "us");
    ("replica.phase_us.execution", "us");
    ("replica.phase_us.reply", "us");
    ("client.retransmits_per_kop", "retx/kop");
    ("client.backlog_peak", "requests");
    ("client.ro_fastpath_frac", "ratio");
    ("client.get_p50_us", "us");
    ("client.get_p99_us", "us");
    ("client.put_p50_us", "us");
    ("client.put_p99_us", "us");
    ("client.txn_p50_us", "us");
    ("client.txn_p99_us", "us");
    ("kv.state_bytes", "B");
    ("kv.state_digest_ms", "ms");
    ("kv.exec_ns", "ns");
    ("shard.txn_commit_frac", "ratio");
    ("shard.lock_recoveries", "count");
    ("shard.group_skew", "ratio");
    ("instr.counter_bumps_per_op", "bumps/op");
    ("instr.metrics_incr_ns", "ns");
    ("instr.trace_overhead", "ratio");
    ("gc.alloc_words_per_op", "words/op");
    ("gc.promoted_words_per_op", "words/op");
    ("gc.major_per_kop", "gcs/kop");
    ("gc.time_share", "ratio");
    ("ref.norep_virt_ops_s", "ops/s");
  ]

(* --- one measured repetition ------------------------------------------------- *)

let slice = 0.01

(* Advance virtual time to [until] in 10 ms slices, running [between]
   after each; slicing never changes the order events fire in. *)
let run_slices engine ~until ~between =
  while Engine.now engine < until do
    Engine.run ~until:(Float.min until (Engine.now engine +. slice)) engine;
    between ()
  done

type 'a measured = {
  setup_ns : float;  (** deploy + preload + warmup *)
  window_ns : float;
  ops : int;  (** completed in the window *)
  attempted : int;
  failed : int;
  virt : (string * float) list;  (** virtual end-to-end metrics *)
  violations : string list;
  result : 'a;
}

let elapsed_since t0 = Int64.to_float (Int64.sub (Spans.now_ns ()) t0)

let virtual_metrics (w : W.t) =
  let obs = w.obs in
  let us p = if Stats.count obs.latency = 0 then nan else Stats.percentile obs.latency p *. 1e6 in
  [
    ("virt_ops_s", float_of_int obs.ok /. w.shape.window);
    ("virt_p50_us", us 50.0);
    ("virt_p99_us", us 99.0);
    ("virt_unavail_ms", w.unavail_ms ());
  ]

(* Deploy [kind] from [seed], warm up, measure one window and audit it.
   [inspect] reads the live deployment after the audit. With [traced],
   the protocol trace is drained after every slice; with [gc], GC phases
   are read from the runtime's event ring and credited to the window. *)
let measure ?traced ?(gc = false) ~seed ~(shape : W.shape) kind inspect =
  Gc.compact ();
  let t0 = Spans.now_ns () in
  let preloaded = Spans.with_ "setup.preload" (fun () -> W.preload kind) in
  let trace =
    match traced with Some t -> t.Layers.Traced.trace | None -> Bft_trace.Trace.nil
  in
  let w = Spans.with_ "setup.deploy" (fun () -> W.deploy ~trace ~preloaded ~seed ~shape kind) in
  let poll_gc () = if gc then Layers.Gc_phases.poll ~parent:(Spans.current ()) in
  Spans.with_ "setup.warmup" (fun () ->
      run_slices w.engine ~until:shape.warmup ~between:(fun () ->
          Option.iter (fun t -> Layers.Traced.drain t ~keep:false) traced;
          poll_gc ()));
  let setup_ns = elapsed_since t0 in
  let before = Layers.snapshot w in
  let pending_peak = ref 0 in
  Layers.Gc_phases.reset ();
  W.begin_window w;
  let t1 = Spans.now_ns () in
  Spans.with_ "window" (fun () ->
      run_slices w.engine ~until:(shape.warmup +. shape.window) ~between:(fun () ->
          pending_peak := max !pending_peak (Engine.pending w.engine);
          Option.iter (fun t -> Layers.Traced.drain t ~keep:true) traced;
          poll_gc ()));
  let window_ns = elapsed_since t1 in
  W.end_window w;
  let after = Layers.snapshot w in
  let violations = Spans.with_ "audit" (fun () -> W.audit w) in
  let unresolved = w.unresolved () in
  {
    setup_ns;
    window_ns;
    ops = w.obs.ok;
    attempted = w.obs.ok + w.obs.failed + unresolved;
    failed = w.obs.failed + unresolved;
    virt = virtual_metrics w;
    violations;
    result = inspect w ~before ~after ~pending_peak:!pending_peak ~window_ns;
  }

(* --- output -------------------------------------------------------------------- *)

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
        | _ -> None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:nan
  | exception Sys_error _ -> nan

let result_line ~correct ~attempted ~failed table values =
  let metric (name, unit) =
    let v =
      match List.assoc_opt name values with
      | Some v -> v
      | None -> failwith ("metric not computed: " ^ name)
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
      unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric table))

let same_bits a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n, x) (m, y) -> n = m && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let report_violations kind vs =
  List.iter (fun v -> Printf.eprintf "AUDIT FAILED [%s]: %s\n%!" (W.name kind) v) vs

(* --trace 0: repeat deploy + warmup + window until [seconds] of window
   wall time have been measured (at least three times, once for a smoke
   shape), and report medians. Every repetition replays the same seed, so
   the virtual metrics must repeat bit for bit. *)
let timed ~seed ~seconds ~tiny kind =
  let shape = W.shape ~tiny kind in
  let min_reps = if tiny then 1 else 3 in
  (* Peak memory of one deployment: read after the first repetition, since
     the heap the later ones leave behind is not returned to the system. *)
  let rss = ref nan in
  let rec loop reps spent =
    if List.length reps >= min_reps && spent >= seconds then List.rev reps
    else begin
      let m = measure ~seed ~shape kind (fun _ ~before:_ ~after:_ ~pending_peak:_ ~window_ns:_ -> ()) in
      if reps = [] then rss := peak_rss_mb ();
      Printf.eprintf "[%s] rep %d: setup %.3f s, window %.3f s, %d ops, %.0f wall ops/s\n%!"
        (W.name kind) (List.length reps + 1) (m.setup_ns /. 1e9) (m.window_ns /. 1e9) m.ops
        (float_of_int m.ops /. (m.window_ns /. 1e9));
      loop (m :: reps) (spent +. (m.window_ns /. 1e9))
    end
  in
  let reps = loop [] 0.0 in
  let first = List.hd reps in
  let deterministic = List.for_all (fun m -> same_bits m.virt first.virt) reps in
  if not deterministic then
    Printf.eprintf "AUDIT FAILED [%s]: virtual metrics differ between same-seed repetitions\n%!"
      (W.name kind);
  List.iter (fun m -> report_violations kind m.violations) reps;
  let values =
    [
      ( "wall_ops_s",
        median (List.map (fun m -> float_of_int m.ops /. (m.window_ns /. 1e9)) reps) );
      ("setup_s", median (List.map (fun m -> m.setup_ns /. 1e9) reps));
      ("peak_rss_mb", !rss);
    ]
    @ first.virt
  in
  let correct = deterministic && List.for_all (fun m -> m.violations = []) reps in
  ( correct,
    result_line ~correct
      ~attempted:(List.fold_left (fun acc m -> acc + m.attempted) 0 reps)
      ~failed:(List.fold_left (fun acc m -> acc + m.failed) 0 reps)
      end_to_end values )

(* --trace 1: an untraced repetition read through the layers' counters and
   probes, then a traced replay of the same seed and window. *)
let traced_run ~seed ~tiny ~trace_out kind =
  Spans.enable ();
  let base = W.shape ~tiny kind in
  let shape = { base with W.window = base.W.traced_window } in
  let u =
    Spans.with_ "run.untraced" (fun () ->
        measure ~gc:true ~seed ~shape kind (fun w ~before ~after ~pending_peak ~window_ns ->
            Layers.counters w ~before ~after ~window:shape.W.window ~pending_peak
            @ Spans.with_ "probes" (fun () ->
                  Layers.probes w ~before ~after ~window_ns ~pending_peak)))
  in
  let gc_ns = Int64.to_float !Layers.Gc_phases.total_ns in
  let traced = Layers.Traced.create () in
  let t =
    Spans.with_ "run.traced" (fun () ->
        measure ~traced ~gc:true ~seed ~shape kind (fun _ ~before:_ ~after:_ ~pending_peak:_ ~window_ns:_ ->
            ()))
  in
  let reference = Layers.norep_reference ~seed ~tiny in
  Spans.write trace_out;
  let per_op m = m.window_ns /. float_of_int (max 1 m.ops) in
  let values =
    u.result
    @ Layers.Traced.metrics traced ~ops:t.ops ~window_ns:u.window_ns
    @ [
        ("instr.trace_overhead", (per_op t /. per_op u) -. 1.0);
        ("gc.time_share", gc_ns /. u.window_ns);
      ]
    @ reference
  in
  let unperturbed = same_bits u.virt t.virt in
  if not unperturbed then
    Printf.eprintf "AUDIT FAILED [%s]: tracing changed the virtual metrics\n%!" (W.name kind);
  if traced.Layers.Traced.overflowed > 0 then
    Printf.eprintf "[%s] warning: %d trace events lost to ring overflow\n%!" (W.name kind)
      traced.Layers.Traced.overflowed;
  report_violations kind (u.violations @ t.violations);
  let correct = unperturbed && u.violations = [] && t.violations = [] in
  (correct, result_line ~correct ~attempted:u.attempted ~failed:u.failed per_layer values)

(* --- child processes ------------------------------------------------------------ *)

(* Run this executable with [args] in a child process with default GC
   settings; returns its exit status and the last line it printed. *)
let run_child args =
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      env Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" (String.split_on_char '\n' out)
  in
  (status = Unix.WEXITED 0, last)

let workload_args ~seed ~seconds ~trace ?(extra = []) kind =
  [
    "--workload"; W.name kind; "--seed"; string_of_int seed; "--seconds"; string_of_float seconds;
    "--trace"; string_of_int trace;
  ]
  @ extra

let metric_values line =
  let j = Json.parse line in
  ( Json.member "correct" j = Json.Bool true,
    List.map
      (fun (name, m) ->
        ( name,
          ( (match Json.member "value" m with Json.Num v -> v | _ -> nan),
            Json.to_string (Json.member "unit" m) ) ))
      (Json.to_fields (Json.member "metrics" j)) )

(* all: the four workloads in sequence, one child process each. *)
let all ~seed ~seconds ~trace =
  let ok =
    List.fold_left
      (fun ok kind ->
        Printf.eprintf "# %s\n%!" (W.name kind);
        let exited, line = run_child (workload_args ~seed ~seconds ~trace kind) in
        print_endline line;
        ok && exited)
      true W.kinds
  in
  exit (if ok then 0 else 1)

(* Quartiles as Python's statistics.quantiles(values, n=4) computes them
   (the default "exclusive" method). *)
let quartiles l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n < 2 then (nan, nan)
  else
    let q i =
      let m = n + 1 in
      let j = i * m / 4 and delta = (i * m) mod 4 in
      let j = max 1 (min (n - 1) j) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let virtual_names = [ "virt_ops_s"; "virt_p50_us"; "virt_p99_us"; "virt_unavail_ms" ]

(* noise: [runs] runs of every workload on seeds [seed], [seed+1], ...,
   alternating the workload order, then a second run of [seed] to check
   that the virtual metrics repeat exactly across processes. Prints each
   metric's median and quartile spread, and the bound BENCHMARK.json
   should carry: three times the widest spread seen (the gate accepts a
   benchmark whose spread stays under a third of its bound), at least a
   floor, at most 0.25. *)
let noise ~runs ~seed ~seconds =
  let results = Hashtbl.create 16 in
  let failures = ref 0 in
  let record kind values =
    List.iter
      (fun (name, (v, _)) ->
        let key = (W.name kind, name) in
        Hashtbl.replace results key (v :: Option.value ~default:[] (Hashtbl.find_opt results key)))
      values
  in
  let run kind s =
    let exited, line = run_child (workload_args ~seed:s ~seconds ~trace:0 kind) in
    match metric_values line with
    | correct, values ->
      if not (exited && correct) then incr failures;
      values
    | exception Json.Error e ->
      Printf.eprintf "[%s] unreadable result (%s): %s\n%!" (W.name kind) e line;
      incr failures;
      []
  in
  let first = Hashtbl.create 4 in
  for i = 0 to runs - 1 do
    let order = if i mod 2 = 0 then W.kinds else List.rev W.kinds in
    List.iter
      (fun kind ->
        let values = run kind (seed + i) in
        if i = 0 then Hashtbl.replace first kind values;
        record kind values)
      order
  done;
  List.iter
    (fun kind ->
      let again = run kind seed in
      let virt vs = List.filter_map (fun n -> Option.map (fun (v, _) -> (n, v)) (List.assoc_opt n vs)) virtual_names in
      let before = virt (Hashtbl.find first kind) in
      if before = [] || not (same_bits before (virt again)) then begin
        Printf.printf "NOT DETERMINISTIC: %s seed %d virtual metrics differ across processes\n"
          (W.name kind) seed;
        incr failures
      end)
    W.kinds;
  Printf.printf "%-14s %-16s %14s %14s %14s %8s\n" "workload" "metric" "median" "q1" "q3" "spread";
  let widest = Hashtbl.create 8 in
  List.iter
    (fun kind ->
      List.iter
        (fun (name, _) ->
          let vs = Option.value ~default:[] (Hashtbl.find_opt results (W.name kind, name)) in
          let med = median vs in
          let q1, q3 = quartiles vs in
          let spread = (q3 -. q1) /. med in
          Printf.printf "%-14s %-16s %14.6g %14.6g %14.6g %8.4f\n" (W.name kind) name med q1 q3 spread;
          Hashtbl.replace widest name
            (Float.max spread (Option.value ~default:0.0 (Hashtbl.find_opt widest name))))
        end_to_end)
    W.kinds;
  print_endline "\nbounds for BENCHMARK.json:";
  List.iter
    (fun (name, _) ->
      let floor = if name = "setup_s" then 0.25 else 0.02 in
      let spread = Option.value ~default:nan (Hashtbl.find_opt widest name) in
      Printf.printf "  %-16s widest spread %.4f -> bound %.3f\n" name spread
        (Float.min 0.25 (Float.max floor (3.0 *. spread))))
    end_to_end;
  Printf.printf "\n%d failed or non-deterministic runs\n" !failures;
  exit (if !failures = 0 then 0 else 1)

(* selftest: every workload in both modes on a tiny window; checks that
   each metric BENCHMARK.json names is printed, finite and in its unit,
   that the audits pass and that the traced run writes its spans. *)
let selftest ~benchmark =
  let spec = Json.parse (In_channel.with_open_text benchmark In_channel.input_all) in
  let table key =
    List.map
      (fun m -> (Json.to_string (Json.member "name" m), Json.to_string (Json.member "unit" m)))
      (Json.to_list (Json.member key spec))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names = List.map (fun w -> Json.to_string (Json.member "name" w)) (Json.to_list (Json.member "workloads" spec)) in
  if names <> List.map W.name W.kinds then problem "BENCHMARK.json workloads differ from the ledger's";
  List.iter
    (fun kind ->
      List.iter
        (fun (trace, expected) ->
          let spans = Printf.sprintf "selftest-%s.spans.jsonl" (W.name kind) in
          let exited, line =
            run_child
              (workload_args ~seed:1 ~seconds:0.0 ~trace kind ~extra:[ "--tiny"; "--trace-out"; spans ])
          in
          let label = Printf.sprintf "%s --trace %d" (W.name kind) trace in
          (match metric_values line with
          | correct, values ->
            if not (exited && correct) then problem "%s: audits failed" label;
            if List.map fst values <> List.map fst expected then
              problem "%s: printed metrics differ from BENCHMARK.json" label;
            List.iter
              (fun (name, unit) ->
                match List.assoc_opt name values with
                | Some (v, u) ->
                  if not (Float.is_finite v) then problem "%s: %s is not finite" label name;
                  if u <> unit then problem "%s: %s in %s, not %s" label name u unit
                | None -> problem "%s: %s missing" label name)
              expected
          | exception Json.Error e -> problem "%s: unreadable result (%s)" label e);
          if trace = 1 then begin
            if not (Sys.file_exists spans && (Unix.stat spans).Unix.st_size > 0) then
              problem "%s: no spans written" label;
            if Sys.file_exists spans then Sys.remove spans
          end)
        [ (0, table "end_to_end"); (1, table "per_layer") ])
    W.kinds;
  List.iter (fun p -> Printf.printf "selftest: %s\n" p) (List.rev !problems);
  if !problems = [] then print_endline "selftest: every workload and metric ok";
  exit (if !problems = [] then 0 else 1)

(* --- command line ------------------------------------------------------------- *)

let usage =
  "usage: ledger.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]\n\
  \       ledger.exe all --seed N [--seconds S] [--trace 0|1]\n\
  \       ledger.exe noise --runs N [--seed N] [--seconds S]\n\
  \       ledger.exe selftest --benchmark FILE\n\
   workloads: null-small null-4k kv-mixed primary-crash"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let trace_out = ref "" and tiny = ref false and runs = ref 10 and benchmark = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S wall seconds of measured windows");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer traced run (1)");
      ("--trace-out", Arg.Set_string trace_out, "FILE span JSONL of the traced run");
      ("--tiny", Arg.Set tiny, " smoke-sized windows (test rule only)");
      ("--runs", Arg.Set_int runs, "N runs per workload (noise)");
      ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json (selftest)");
    ]
  in
  let command = ref "" in
  let anon a = if !command = "" then command := a else raise (Arg.Bad ("unexpected " ^ a)) in
  (try Arg.parse_argv Sys.argv specs anon usage with
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  match !command with
  | "all" -> all ~seed:!seed ~seconds:!seconds ~trace:!trace
  | "noise" -> noise ~runs:!runs ~seed:!seed ~seconds:!seconds
  | "selftest" -> selftest ~benchmark:!benchmark
  | "" -> (
    match W.of_name !workload with
    | None ->
      prerr_endline usage;
      exit 2
    | Some kind ->
      let correct, line =
        if !trace = 1 then
          let out = if !trace_out = "" then Printf.sprintf "ledger-%s.spans.jsonl" !workload else !trace_out in
          traced_run ~seed:!seed ~tiny:!tiny ~trace_out:out kind
        else timed ~seed:!seed ~seconds:!seconds ~tiny:!tiny kind
      in
      print_endline line;
      exit (if correct then 0 else 1))
  | other ->
    prerr_endline ("unknown command " ^ other ^ "\n" ^ usage);
    exit 2
