(* bft_lab: command-line driver for the reproduction experiments.

   Each subcommand regenerates one figure of the paper (or a piece of one)
   and prints the measured table together with the paper anchors. Every
   number it reports is on the simulated clock; what the simulator costs
   to run on the host is measured by the performance ledger
   (bench/ledger). Flags that several subcommands take are declared once
   below and mean the same thing everywhere. *)

open Cmdliner
module E_micro = Bft_workloads.Experiments_micro
module E_fs = Bft_workloads.Experiments_fs
module Ablations = Bft_workloads.Ablations
module Report = Bft_workloads.Report
module Microbench = Bft_workloads.Microbench
module Nfs_rig = Bft_workloads.Nfs_rig
module Calibration = Bft_sim.Calibration
module Config = Bft_core.Config
module Trace = Bft_trace.Trace
module Monitor = Bft_trace.Monitor
module Run_bundle = Bft_trace.Run_bundle
module Plan = Bft_chaos.Plan
module Campaign = Bft_chaos.Campaign

(* --- output helpers --------------------------------------------------- *)

let die ?(code = 1) fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bft_lab: " ^ msg);
      exit code)
    fmt

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> die ~code:2 "cannot read %s" msg

let write_file ?(append = false) path contents =
  let mode = if append then Open_append else Open_trunc in
  try
    Out_channel.with_open_gen [ Open_wronly; Open_creat; mode ] 0o644 path
      (fun oc -> output_string oc contents)
  with Sys_error msg -> die "cannot write %s" msg

let print_latency label (r : Microbench.latency_result) =
  Printf.printf "%s %8.1f us (+/- %.1f, %d ops)\n" label
    (r.Microbench.mean *. 1e6)
    (r.Microbench.stddev *. 1e6)
    r.Microbench.ops

let health_lines monitor =
  ("health: " ^ Monitor.summary monitor)
  :: List.map
       (fun a -> "  alert: " ^ Monitor.alert_detail a)
       (Monitor.alerts monitor)

let print_lines = List.iter print_endline

(* Write the run bundle of an observed run; [write] is {!Run_bundle.write}
   applied to the artifacts. *)
let write_run_bundle ?(oc = stdout) ?(cal = Calibration.default) observe
    subcommand write =
  Option.iter
    (fun dir ->
      match write ~dir ~subcommand ~cost_profile:(Calibration.name cal) with
      | files ->
        Printf.fprintf oc "wrote run bundle %s (%s)\n" dir
          (String.concat ", " (List.map fst files))
      | exception Sys_error msg -> die "cannot write %s" msg)
    observe

let check_balanced profile =
  if not (Bft_trace.Profile.balanced profile) then
    die "profile balance: FAILED — category totals do not sum to busy time"

let read_plan_file ~n file =
  let checked =
    Result.bind (Plan.of_string (read_file file)) (fun plan ->
        Result.map (fun () -> plan) (Plan.validate ~n plan))
  in
  match checked with Ok plan -> plan | Error msg -> die ~code:2 "%s: %s" file msg

let print_sections sections = List.iter Report.print sections

(* --- flags ------------------------------------------------------------ *)

let flag_arg name ~doc = Arg.(value & flag & info [ name ] ~doc)

(* A numeric flag accepts only the range the code under it accepts, given
   as (description, predicate): a value outside it is a usage error
   (exit 124), reported before anything runs. *)
let ranged conv (what, ok) name default ~doc =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | Error _ as e -> e
  in
  let checked = Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv) in
  Arg.(value & opt checked default & info [ name ] ~doc)

let any_int = ("an integer", fun _ -> true)
let size = ("a non-negative integer", fun v -> v >= 0)
let count = ("a positive integer", fun v -> v >= 1)
let positive = ("a positive number", fun v -> Float.is_finite v && v > 0.0)
let int_arg range = ranged Arg.int range
let float_arg range = ranged Arg.float range

let file_arg name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~doc ~docv:"FILE")

let path_arg name default ~doc =
  Arg.(value & opt string default & info [ name ] ~doc ~docv:"FILE")

let quick_arg =
  flag_arg "quick"
    ~doc:"Shrink sweep grids and iteration counts for a fast smoke run."

let seed_arg =
  int_arg any_int "seed" 42
    ~doc:"Random seed; the same seed reproduces the run exactly."

let cost_profile_arg =
  let doc =
    Printf.sprintf "Cost profile the simulation is calibrated to; %s."
      (Arg.doc_alts Calibration.profile_names)
  in
  Arg.(
    value
    & opt (enum Calibration.profiles) Calibration.default
    & info [ "cost-profile" ] ~doc ~docv:"PROFILE")

let arg_arg default = int_arg size "arg" default ~doc:"Argument size in bytes."
let res_arg default = int_arg size "res" default ~doc:"Result size in bytes."
let read_only_arg = flag_arg "read-only" ~doc:"Issue read-only operations."
let ops_arg = int_arg count "ops" 200 ~doc:"Measured operations."

let json_arg = file_arg "json" ~doc:"Write the result as JSON to $(docv)."

let observe_doc =
  "Turn on the run's recorders (protocol trace, health monitors, metric \
   series, as the subcommand has them) and write what they recorded, plus a \
   manifest.json naming each file, into the run bundle directory $(docv). \
   Observation is pure: the measured numbers do not change."

let observe_arg =
  Arg.(value & opt (some string) None & info [ "observe" ] ~doc:observe_doc ~docv:"DIR")

(* The trace ring keeps the newest 2^20 events. *)
let trace_ring () = Trace.create ~capacity:(1 lsl 20) ()

(* A live trace ring when the run is observed, the nil sink otherwise. *)
let trace_if observe = if observe = None then Trace.nil else trace_ring ()

(* --- subcommands ------------------------------------------------------ *)

let figure_cmd name doc (run : ?quick:bool -> unit -> Report.section list) =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun quick -> print_sections (run ~quick ())) $ quick_arg)

let latency_cmd =
  let doc = "One latency point: BFT and NO-REP for a given op shape." in
  let run arg res read_only observe =
    let trace = trace_if observe in
    let b = Microbench.bft_latency ~trace ~arg ~res ~read_only () in
    let n = Microbench.norep_latency ~arg ~res () in
    print_latency "BFT    :" b;
    print_latency "NO-REP :" n;
    Printf.printf "slowdown: %.2f\n" (b.Microbench.mean /. n.Microbench.mean);
    write_run_bundle observe "latency" (Run_bundle.write ~trace ())
  in
  Cmd.v (Cmd.info "latency" ~doc)
    Term.(const run $ arg_arg 8 $ res_arg 8 $ read_only_arg $ observe_arg)

let throughput_cmd =
  let doc = "One throughput point: BFT for a given op shape and client count." in
  let clients = int_arg count "clients" 50 ~doc:"Client count." in
  let groups =
    int_arg count "groups" 1
      ~doc:
        "Replica groups. With more than one, runs the sharded uniform-key KV \
         workload ($(b,--clients) proxies spread over the groups; \
         $(b,--arg)/$(b,--res)/$(b,--read-only) do not apply)."
  in
  let run arg res clients groups read_only cal observe =
    let trace = trace_if observe and health = observe <> None in
    Printf.printf "cost profile: %s\n" (Calibration.name cal);
    let print_drops =
      List.iter (fun (host, dropped, overflowed) ->
          Printf.printf
            "  %s: %d datagrams dropped (%d receive-buffer overflows)\n" host
            dropped overflowed)
    in
    let monitors, rollup =
      if groups > 1 then begin
        let clients_per_group = Stdlib.max 1 (clients / groups) in
        let t =
          Microbench.sharded_throughput ~cal ~trace ~health ~groups
            ~clients_per_group ()
        in
        Printf.printf
          "BFT sharded KV, %d groups x %d proxies: %.0f ops/s (%d completed, \
           %d retransmissions)\n"
          groups clients_per_group t.Microbench.sh_ops_per_sec
          t.Microbench.sh_completed t.Microbench.sh_retransmissions;
        Array.iteri
          (fun g c -> Printf.printf "  group %d: %d completed\n" g c)
          t.Microbench.sh_per_group;
        print_drops t.Microbench.sh_drops_by_node;
        let ms = t.Microbench.sh_monitors in
        ( Array.to_list ms,
          if health then [ Bft_shard.Rig.(rollup_line (health_rollup ms)) ] else [] )
      end
      else begin
        let monitor = if health then Some (Monitor.create ()) else None in
        let t =
          Microbench.bft_throughput ~cal ~trace ?monitor ~arg ~res ~read_only
            ~clients ()
        in
        Printf.printf
          "BFT %d/%d, %d clients: %.0f ops/s (%d completed, %d \
           retransmissions)\n"
          arg res clients t.Microbench.ops_per_sec t.Microbench.completed
          t.Microbench.retransmissions;
        print_drops t.Microbench.drops_by_node;
        (Option.to_list monitor, [])
      end
    in
    let health = List.concat_map health_lines monitors @ rollup in
    print_lines health;
    write_run_bundle ~cal observe "throughput"
      (Run_bundle.write ~trace ~health
         ~alerts:(List.concat_map Monitor.alerts monitors)
         ())
  in
  Cmd.v (Cmd.info "throughput" ~doc)
    Term.(
      const run $ arg_arg 0 $ res_arg 0 $ clients $ groups $ read_only_arg
      $ cost_profile_arg $ observe_arg)

let trace_cmd =
  let doc =
    "Trace one BFT latency run: write its run bundle (protocol trace as JSONL \
     and as a Chrome trace for chrome://tracing / Perfetto, a metric \
     time-series sampled every virtual millisecond, the CPU profile), print \
     the per-phase latency breakdown and the causal-DAG summary. \
     Deterministic: the same seed and operation shape produce a \
     byte-identical bundle."
  in
  let module Timeline = Bft_trace.Timeline in
  let module Span = Bft_trace.Span in
  (* trace always writes its bundle, unlike the subcommands where it is
     opt-in, and keeps its historical --out spelling as an alias. *)
  let observe =
    Arg.(
      value & opt string "bft_trace"
      & info [ "observe"; "out" ] ~doc:observe_doc ~docv:"DIR")
  in
  let run arg res ops seed read_only cal dir =
    let trace = trace_ring () in
    Printf.printf "cost profile: %s\n" (Calibration.name cal);
    let pr =
      Microbench.bft_profile ~arg ~res ~ops ~seed ~cal ~trace ~read_only
        ~series_every:0.001 ()
    in
    let r = pr.Microbench.pf_latency in
    write_run_bundle ~cal (Some dir) "trace"
      (Run_bundle.write ~seed ~trace ?series:pr.Microbench.pf_series
         ~profile:pr.Microbench.pf_profile ());
    let dag = Span.of_events (Trace.events trace) in
    let tl = Timeline.of_dag ~skip:Microbench.latency_warmup dag in
    Report.print (Report.breakdown_section tl);
    Printf.printf "\ncausal DAG: %s\n" (Span.summary dag);
    Printf.printf
      "microbench mean %8.1f us (+/- %.1f, %d ops); phase sum %8.1f us\n"
      (r.Microbench.mean *. 1e6)
      (r.Microbench.stddev *. 1e6)
      r.Microbench.ops
      (Bft_util.Stats.mean tl.Timeline.end_to_end *. 1e6);
    if not (Span.complete dag) then begin
      List.iter
        (fun (req, reason) ->
          Printf.eprintf "incomplete DAG for request %Ld: %s\n" req reason)
        (Span.check dag);
      exit 1
    end
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ arg_arg 0 $ res_arg 0 $ ops_arg $ seed_arg $ read_only_arg
      $ cost_profile_arg $ observe)

let profile_cmd =
  let doc =
    "Profile one BFT latency run in virtual time: per-machine, per-category \
     CPU cost breakdown (MAC generation/verification, digests, message \
     encode/decode, execution) in the style of the paper's Table 2, plus \
     crypto operation counts. The per-node category totals sum exactly to \
     the engine's busy time; the command fails if they do not."
  in
  let rotating =
    flag_arg "rotating"
      ~doc:
        "Run under rotating ordering (epoch length 4) so the per-owner \
         breakdown shows proposals spread over all replicas (with any null \
         fills and reclaims)."
  in
  let run arg res ops seed read_only rotating cal observe =
    let trace = trace_if observe in
    Printf.printf "cost profile: %s\n" (Calibration.name cal);
    let ordering =
      if rotating then Config.Rotating { epoch_length = 4 }
      else Config.Single_primary
    in
    let pr =
      Microbench.bft_profile
        ~config:(Config.make ~f:1 ~ordering ())
        ~arg ~res ~ops ~seed ~cal ~trace ~read_only ()
    in
    let r = pr.Microbench.pf_latency in
    Report.print (Report.profile_section pr.Microbench.pf_profile);
    print_newline ();
    Report.print
      (Report.crypto_section
         ~ops:(Microbench.latency_warmup + r.Microbench.ops)
         pr.Microbench.pf_crypto);
    print_newline ();
    print_endline "ordering owners:";
    Printf.printf "  %-10s %10s %10s %10s\n" "replica" "batches" "null-fill"
      "reclaims";
    List.iter
      (fun o ->
        Printf.printf "  replica%-3d %10d %10d %10d\n" o.Microbench.ow_id
          o.Microbench.ow_batches o.Microbench.ow_null_fill
          o.Microbench.ow_reclaim)
      pr.Microbench.pf_owners;
    print_newline ();
    print_latency "latency:" r;
    write_run_bundle ~cal observe "profile"
      (Run_bundle.write ~seed ~trace ~profile:pr.Microbench.pf_profile ());
    check_balanced pr.Microbench.pf_profile;
    print_endline "profile balance: OK (category totals = engine busy time)"
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ arg_arg 0 $ res_arg 0 $ ops_arg $ seed_arg $ read_only_arg
      $ rotating $ cost_profile_arg $ observe_arg)

let backend_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("bfs", Nfs_rig.Bfs);
             ("norep", Nfs_rig.Norep_fs);
             ("nfs-std", Nfs_rig.Nfs_std_fs);
           ])
        Nfs_rig.Bfs
    & info [ "backend" ] ~doc:"Backend.")

(* Shared by andrew and postmark: phase table, CPU profile attribution and
   health summary of a file-system run. *)
let print_observed (ob : E_fs.observed) =
  if ob.E_fs.ob_phases <> [] then begin
    print_endline "phases:";
    List.iter
      (fun (name, t) -> Printf.printf "  %-14s %8.2f s\n" name t)
      ob.E_fs.ob_phases
  end;
  print_newline ();
  Report.print (Report.profile_section ob.E_fs.ob_profile);
  print_newline ();
  print_lines (health_lines ob.E_fs.ob_monitor);
  check_balanced ob.E_fs.ob_profile

let andrew_cmd =
  let doc = "Run the modified Andrew benchmark on one backend." in
  let n = int_arg count "n" 100 ~doc:"Number of tree copies." in
  let run n backend =
    let ob = E_fs.run_andrew ~n backend in
    Printf.printf "Andrew%d on %s: %.1f s elapsed, %d NFS calls\n" n
      (Nfs_rig.backend_name backend)
      ob.E_fs.ob_elapsed ob.E_fs.ob_calls;
    print_observed ob
  in
  Cmd.v (Cmd.info "andrew" ~doc) Term.(const run $ n $ backend_arg)

let postmark_cmd =
  let doc = "Run the PostMark benchmark on one backend." in
  let files = int_arg count "files" 1000 ~doc:"Initial file count." in
  let transactions = int_arg count "transactions" 5000 ~doc:"Transactions." in
  let run files transactions backend =
    let ob, txns = E_fs.run_postmark ~files ~transactions backend in
    Printf.printf "PostMark on %s: %.1f s elapsed, %d transactions (%.0f txn/s)\n"
      (Nfs_rig.backend_name backend)
      ob.E_fs.ob_elapsed txns
      (float_of_int txns /. ob.E_fs.ob_elapsed);
    print_observed ob
  in
  Cmd.v (Cmd.info "postmark" ~doc)
    Term.(const run $ files $ transactions $ backend_arg)

let chaos_cmd =
  let doc =
    "Deterministic chaos campaigns: seeded fault plans (crashes, restarts, \
     partitions, loss, duplication, runtime Byzantine switches, client \
     bursts) executed against a live cluster, with a safety/liveness \
     invariant check per campaign and greedy shrinking of the first \
     failing plan. Emits one JSON line per campaign; exits non-zero on \
     any violation."
  in
  let campaigns = int_arg count "campaigns" 20 ~doc:"Number of campaigns." in
  let plan_file =
    file_arg "plan" ~doc:"Replay one plan from $(docv) instead of generating."
  in
  let shrunk_out =
    path_arg "shrunk-out" "chaos_shrunk.plan"
      ~doc:"Where to write the minimal failing plan."
  in
  let unsafe =
    flag_arg "unsafe-no-commit-quorum"
      ~doc:
        "Self-test: run the deliberately unsound protocol variant that treats \
         prepared batches as committed, to prove the checker catches (and \
         shrinks) real safety violations."
  in
  let rotating =
    flag_arg "rotating"
      ~doc:
        "Run every campaign under rotating ordering (epoch length 2) and let \
         the generator aim half its crash events at whichever replica owns \
         the epoch when they fire — the handoff-window stress test for the \
         rotation protocol."
  in
  let n_replicas = 4 in
  let run seed campaigns plan_file shrunk_out unsafe rotating observe =
    let ordering =
      if rotating then Config.Rotating { epoch_length = 2 } else Config.Single_primary
    in
    (* What the bundle collects over every campaign run: the health lines
       (also printed on stderr), the alerts and the newest post-mortem. *)
    let health = ref [] and alerts = ref [] and postmortem = ref None in
    let write_chaos_bundle ?trace () =
      write_run_bundle ~oc:stderr observe "chaos"
        (Run_bundle.write ~seed ?trace ~health:(List.rev !health)
           ~alerts:(List.rev !alerts) ?postmortem:!postmortem ())
    in
    let run_plan ~seed plan =
      let o =
        Campaign.run ~ordering ~unsafe_no_commit_quorum:unsafe ~seed ~plan ()
      in
      if observe <> None then begin
        let line =
          Printf.sprintf "health (seed %d): %s" seed
            (Monitor.summary o.Campaign.monitor)
        in
        prerr_endline line;
        health := line :: !health;
        alerts := List.rev_append o.Campaign.alerts !alerts;
        Option.iter
          (fun b -> postmortem := Some b)
          (Monitor.last_bundle o.Campaign.monitor)
      end;
      o
    in
    let report_failure ~campaign ~seed outcome =
      let shrunk, shrunk_outcome =
        Campaign.shrink ~run:(fun p -> run_plan ~seed p) outcome.Campaign.plan
      in
      Printf.eprintf
        "bft_lab chaos: campaign %d (seed %d) violated invariants; shrunk \
         %d-event plan to %d events\n"
        campaign seed
        (List.length outcome.Campaign.plan)
        (List.length shrunk);
      List.iter
        (fun v ->
          Printf.eprintf "  %s: %s\n" v.Campaign.invariant v.Campaign.detail)
        shrunk_outcome.Campaign.violations;
      write_file shrunk_out (Plan.to_string shrunk);
      Printf.eprintf "  minimal plan written to %s (replay with --plan)\n"
        shrunk_out;
      (match observe with
      | Some dir ->
        (* Re-run the minimal failing plan with a live trace sink so the
           failure is inspectable event by event; the re-run is
           deterministic, so the traced outcome matches the reported one. *)
        let trace = trace_ring () in
        let traced =
          Campaign.run ~ordering ~unsafe_no_commit_quorum:unsafe ~trace ~seed
            ~plan:shrunk ()
        in
        postmortem := Monitor.last_bundle traced.Campaign.monitor;
        write_chaos_bundle ~trace ();
        print_endline (Campaign.jsonl ~campaign ~bundle:dir shrunk_outcome)
      | None ->
        Printf.eprintf
          "  re-run with --observe DIR to record its protocol trace\n";
        print_endline (Campaign.jsonl ~campaign shrunk_outcome));
      exit 1
    in
    (match plan_file with
    | Some file ->
      let outcome = run_plan ~seed (read_plan_file ~n:n_replicas file) in
      print_endline (Campaign.jsonl outcome);
      if Campaign.failed outcome then report_failure ~campaign:0 ~seed outcome
    | None ->
      let root = Bft_util.Rng.of_int seed in
      for campaign = 0 to campaigns - 1 do
        let rng = Bft_util.Rng.split root (Printf.sprintf "campaign%d" campaign) in
        let plan = Plan.generate ~rotating ~rng ~n:n_replicas ~f:1 ~horizon:6.0 () in
        let campaign_seed = Bft_util.Rng.int rng (1 lsl 30) in
        let outcome = run_plan ~seed:campaign_seed plan in
        print_endline (Campaign.jsonl ~campaign outcome);
        if Campaign.failed outcome then
          report_failure ~campaign ~seed:campaign_seed outcome
      done);
    write_chaos_bundle ()
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ seed_arg $ campaigns $ plan_file $ shrunk_out
      $ unsafe $ rotating $ observe_arg)

let txn_cmd =
  let doc =
    "Cross-shard transaction chaos: two-phase-commit coordinators and \
     single-key writers over a sharded deployment, optionally with a live \
     reshard and targeted crashes, audited against the txn.atomic and \
     reshard.no_lost_keys invariants. Emits one JSON line; exits non-zero \
     on any violation (inverted by --expect-violation)."
  in
  let module Sc = Bft_chaos.Shard_campaign in
  let scenario =
    Arg.(
      value
      & opt
          (enum
             [
               ("healthy", Sc.Healthy);
               ("coordinator-crash", Sc.Coordinator_crash);
               ("mid-migration", Sc.Replica_mid_migration);
             ])
          Sc.Healthy
      & info [ "scenario" ]
          ~doc:
            "One of $(b,healthy) (live reshard under clean traffic), \
             $(b,coordinator-crash) (a coordinator dies between PREPARE \
             and COMMIT), $(b,mid-migration) (a donor-group replica \
             crashes during the reshard).")
  in
  let no_recovery =
    flag_arg "no-recovery"
      ~doc:
        "Disable client-driven lock recovery: a dead coordinator's locks \
         linger, which the txn.atomic audit must catch."
  in
  let expect_violation =
    flag_arg "expect-violation"
      ~doc:
        "Self-test: exit zero only if the audits DO flag a violation (pair \
         with --no-recovery and --scenario coordinator-crash to prove the \
         checker catches a wedged transaction)."
  in
  let json_out = file_arg "json" ~doc:"Also append the JSON line to $(docv)." in
  let run scenario seed no_recovery expect_violation json_out =
    let o = Sc.run ~scenario ~recovery:(not no_recovery) ~seed () in
    let line = Sc.jsonl o in
    print_endline line;
    Option.iter (fun path -> write_file ~append:true path (line ^ "\n")) json_out;
    List.iter
      (fun v -> Printf.eprintf "  %s: %s\n" v.Sc.invariant v.Sc.detail)
      o.Sc.violations;
    match (expect_violation, Sc.failed o) with
    | true, false ->
      die "txn: expected an invariant violation but the audits passed"
    | false, true -> exit 1
    | _ -> ()
  in
  Cmd.v (Cmd.info "txn" ~doc)
    Term.(
      const run $ scenario $ seed_arg $ no_recovery $ expect_violation
      $ json_out)

let bench_cmd =
  let doc =
    "Saturation bench suite: 0/0, 4/0, 0/4 micro-ops, the batched \
     throughput curve and the scaling, rotating-ordering and cross-shard \
     rows, all on the simulated clock (deterministic for a fixed seed). \
     Optionally writes the result as JSON and compares its golden part \
     against a golden file."
  in
  let module Saturation = Bft_workloads.Saturation in
  let groups =
    int_arg count "groups" 4
      ~doc:
        "Upper bound of the scaling sweep: the scaling section runs 1, 2, 4, \
         ... groups up to this count."
  in
  let golden =
    file_arg "golden"
      ~doc:
        "Compare the golden part byte-for-byte against $(docv); exit non-zero \
         on any difference."
  in
  let write_golden =
    file_arg "write-golden" ~doc:"Write the golden part to $(docv)."
  in
  let run quick seed groups cal observe json_out golden write_golden =
    let pinned = Calibration.name Calibration.default in
    if Calibration.name cal <> pinned && (golden <> None || write_golden <> None)
    then
      die ~code:2
        "bench: the golden surface is pinned to the %s profile; \
         --golden/--write-golden cannot be used with --cost-profile %s"
        pinned (Calibration.name cal);
    let t =
      Saturation.run ~quick ~seed ~max_groups:groups ~health:(observe <> None)
        ~cal ()
    in
    Saturation.print t;
    let alerts = Saturation.health_alerts t in
    write_run_bundle ~cal observe "bench"
      (Run_bundle.write ~seed ~health:(Saturation.health_lines t) ~alerts ());
    if alerts <> [] then
      die "bench: %d health alert(s) during a healthy bench run"
        (List.length alerts);
    Option.iter
      (fun path ->
        write_file path (Saturation.to_json t);
        Printf.printf "wrote %s\n" path)
      json_out;
    Option.iter
      (fun path ->
        write_file path (Saturation.virtual_json t);
        Printf.printf "wrote golden %s\n" path)
      write_golden;
    Option.iter
      (fun path ->
        let expected = read_file path and actual = Saturation.virtual_json t in
        if String.equal expected actual then
          Printf.printf "golden check: OK (%s)\n" path
        else
          die
            "golden check FAILED: results differ from %s\n\
             --- expected ---\n\
             %s--- actual ---\n\
             %s"
            path expected actual)
      golden
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ quick_arg $ seed_arg $ groups $ cost_profile_arg $ observe_arg
      $ json_arg $ golden $ write_golden)

let monitor_cmd =
  let doc =
    "Live health monitoring: run a seeded, deterministic campaign under the \
     always-on monitor — healthy by default, with a crashed primary \
     ($(b,--crash-primary)), or against a chaos plan file ($(b,--plan)) — \
     print the gauges summary and every typed alert, and optionally write \
     them to a run bundle with the flight recorder's newest post-mortem \
     (replayable JSONL: the header's seed and plan pin down the whole run)."
  in
  let crash_primary =
    flag_arg "crash-primary"
      ~doc:
        "Crash replica 0 (the view-0 primary) one virtual second in: the \
         stalled-commit and silent-leader detectors must fire before the \
         0.25 s view-change timeout recovers the group."
  in
  let plan_file =
    file_arg "plan" ~doc:"Run this chaos plan (overrides $(b,--crash-primary))."
  in
  let fail_on_alert =
    flag_arg "fail-on-alert"
      ~doc:"Exit non-zero if any alert fired (healthy-run smoke)."
  in
  let require_alert =
    flag_arg "require-alert" ~doc:"Exit non-zero if no alert fired (detector smoke)."
  in
  let run seed crash_primary plan_file observe fail_on_alert require_alert =
    let plan =
      match plan_file with
      | Some file -> read_plan_file ~n:4 file
      | None ->
        if crash_primary then [ { Plan.at = 1.0; action = Plan.Crash 0 } ]
        else []
    in
    let o = Campaign.run ~seed ~plan () in
    Printf.printf
      "campaign seed %d, %d plan event(s): %d/%d ops, final view %d, %.2f s \
       virtual, %d violation(s)\n"
      seed (List.length plan) o.Campaign.ops_completed o.Campaign.ops_total
      o.Campaign.final_view o.Campaign.sim_time
      (List.length o.Campaign.violations);
    List.iter
      (fun v ->
        Printf.printf "violation: %s: %s\n" v.Campaign.invariant
          v.Campaign.detail)
      o.Campaign.violations;
    let health = health_lines o.Campaign.monitor in
    print_lines health;
    write_run_bundle observe "monitor"
      (Run_bundle.write ~seed ~health ~alerts:o.Campaign.alerts
         ?postmortem:(Monitor.last_bundle o.Campaign.monitor)
         ());
    if o.Campaign.violations <> [] then exit 1;
    if fail_on_alert && o.Campaign.alerts <> [] then
      die "monitor: alerts fired (--fail-on-alert)";
    if require_alert && o.Campaign.alerts = [] then
      die "monitor: no alert fired (--require-alert)"
  in
  Cmd.v (Cmd.info "monitor" ~doc)
    Term.(
      const run $ seed_arg $ crash_primary $ plan_file $ observe_arg
      $ fail_on_alert $ require_alert)

let overload_cmd =
  let doc =
    "Overload robustness: drive one cluster with an open-loop square-wave \
     burst (arrivals independent of completions, multiplexed over a stub \
     pool), with admission control shedding excess load as explicit BUSY \
     rejections. Checks the graceful-degradation invariants — every \
     arrival commits or is explicitly rejected, the admission queue stays \
     within its configured bound, replicas never disagree on an executed \
     batch — and exits non-zero if any fails."
  in
  let module Openloop = Bft_workloads.Openloop in
  let module Stats = Bft_util.Stats in
  let rate =
    float_arg positive "rate" 2000.0 ~doc:"Baseline arrival rate (ops per virtual second)."
  in
  let burst =
    float_arg positive "burst" 10.0
      ~doc:
        "Burst multiplier: during the on-phase of each period arrivals come \
         at $(b,--rate) times this factor. 1 degenerates to a plain Poisson \
         stream."
  in
  let period = float_arg positive "period" 1.0 ~doc:"Square-wave period (virtual seconds)." in
  let duty =
    float_arg
      ("a number strictly between 0 and 1", fun d -> d > 0.0 && d < 1.0)
      "duty" 0.2 ~doc:"Fraction of each period spent bursting." in
  let duration =
    float_arg positive "duration" 5.0 ~doc:"Arrival horizon (virtual seconds)."
  in
  let stubs =
    int_arg count "stubs" 256
      ~doc:
        "Client stubs multiplexing the arrival stream (the pool must be deep \
         enough for the burst to actually pile up at the primary, or the \
         pool itself becomes the bottleneck)."
  in
  let queue_limit =
    int_arg size "queue-limit" 16
      ~doc:
        "Replica admission-queue limit (0 disables shedding; with it disabled \
         the run must drain without a single BUSY)."
  in
  let drop_oldest =
    flag_arg "drop-oldest" ~doc:"Shed the oldest queued request instead of the newest."
  in
  let retry_budget =
    int_arg size "retry-budget" 8
      ~doc:"Client retries after a BUSY before reporting rejection."
  in
  let require_shed =
    flag_arg "require-shed"
      ~doc:
        "Exit non-zero if admission control never shed (overload smoke: \
         proves the burst actually exceeded capacity)."
  in
  let run seed rate burst period duty duration stubs queue_limit drop_oldest
      retry_budget cal json_out observe require_shed =
    let process =
      if burst <= 1.0 then Openloop.Poisson { rate }
      else
        Openloop.Square_wave
          { base_rate = rate; burst_rate = rate *. burst; period; duty }
    in
    let config =
      Config.make ~f:1 ~admission_queue_limit:queue_limit
        ~shed_policy:(if drop_oldest then Config.Drop_oldest else Config.Reject_new)
        ~shed_retry_budget:retry_budget ()
    in
    let r = Openloop.run ~config ~seed ~cal ~stubs ~duration process () in
    Printf.printf "cost profile: %s\n" (Calibration.name cal);
    Printf.printf "overload seed %d, %.0f ops/s x%.0f burst (duty %.2f): %s\n"
      seed rate burst duty (Openloop.summary r);
    let monitor = r.Openloop.ol_monitor in
    let health = health_lines monitor in
    print_lines health;
    Option.iter
      (fun path ->
        write_file path
          (Printf.sprintf
             "{\"schema\":\"bft-lab/overload/v2\",\"cost_profile\":%S,\"seed\":%d,\"rate\":%.3f,\"burst\":%.3f,\"period\":%.3f,\"duty\":%.3f,\"duration\":%.3f,\"stubs\":%d,\"queue_limit\":%d,\"offered\":%d,\"completed\":%d,\"rejected\":%d,\"unresolved\":%d,\"sheds\":%d,\"shed_rate\":%.3f,\"goodput\":%.3f,\"peak_backlog\":%d,\"peak_queue\":%d,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"retransmissions\":%d,\"safety_violations\":%d,\"alerts\":%s}\n"
             (Calibration.name cal) seed rate burst period duty duration stubs
             queue_limit r.Openloop.ol_offered r.Openloop.ol_completed
             r.Openloop.ol_rejected r.Openloop.ol_unresolved
             r.Openloop.ol_sheds r.Openloop.ol_shed_rate r.Openloop.ol_goodput
             r.Openloop.ol_peak_backlog r.Openloop.ol_peak_queue
             (Stats.p50 r.Openloop.ol_latency *. 1e3)
             (Stats.p99 r.Openloop.ol_latency *. 1e3)
             r.Openloop.ol_retransmissions r.Openloop.ol_safety_violations
             (Monitor.alerts_json (Monitor.alerts monitor)));
        Printf.printf "wrote %s\n" path)
      json_out;
    write_run_bundle ~cal observe "overload"
      (Run_bundle.write ~seed ~health ~alerts:(Monitor.alerts monitor)
         ?postmortem:(Monitor.last_bundle monitor)
         ());
    if r.Openloop.ol_safety_violations > 0 then
      die "overload: %d safety violation(s): replicas disagree on executed batches"
        r.Openloop.ol_safety_violations;
    if r.Openloop.ol_unresolved <> 0 then
      die "overload: silent loss: %d of %d arrivals neither committed nor were \
           rejected"
        r.Openloop.ol_unresolved r.Openloop.ol_offered;
    if queue_limit > 0 && r.Openloop.ol_peak_queue > queue_limit then
      die "overload: admission queue reached %d, past the configured limit %d"
        r.Openloop.ol_peak_queue queue_limit;
    if queue_limit = 0 && r.Openloop.ol_sheds > 0 then
      die "overload: %d sheds with admission control disabled"
        r.Openloop.ol_sheds;
    if require_shed && r.Openloop.ol_sheds = 0 then
      die "overload: no load was shed (--require-shed): burst never exceeded \
           capacity"
  in
  Cmd.v (Cmd.info "overload" ~doc)
    Term.(
      const run $ seed_arg $ rate $ burst $ period $ duty $ duration $ stubs
      $ queue_limit $ drop_oldest $ retry_budget $ cost_profile_arg $ json_arg
      $ observe_arg $ require_shed)

let model_cmd =
  let doc =
    "Analytic performance model: predict per-request CPU and wire occupancy, \
     the saturation knee and its binding resource, and unloaded latency from \
     a cost profile — then compare the predictions against every row of the \
     golden virtual-time bench surface and report relative errors. With \
     $(b,--check), exit non-zero if any row falls outside the tolerance band \
     (the CI gate on the default profile)."
  in
  let module Model = Bft_workloads.Model in
  let module Saturation = Bft_workloads.Saturation in
  let golden_file =
    path_arg "golden" "bench/golden_bench_virtual.json"
      ~doc:"Golden virtual-time bench surface to compare against."
  in
  let check =
    flag_arg "check"
      ~doc:
        "Exit non-zero when any predicted row is outside the tolerance band, \
         or when the golden file was benched under a different cost profile \
         than the one selected."
  in
  let run cal golden_file check =
    let golden =
      try Saturation.of_json (read_file golden_file)
      with Failure msg -> die ~code:2 "%s: %s" golden_file msg
    in
    if golden.Saturation.cost_profile <> Calibration.name cal then begin
      Printf.eprintf
        "bft_lab model: golden %s was benched under profile %s, not %s — the \
         observed column would compare apples to oranges\n"
        golden_file golden.Saturation.cost_profile (Calibration.name cal);
      if check then exit 1
    end;
    let report = Model.report ~cal ~golden () in
    print_string (Model.render report);
    print_newline ();
    print_endline (Model.summary ~cal ~arg:0 ~res:0 ());
    print_newline ();
    print_endline (Model.summary ~cal ~arg:4096 ~res:0 ());
    if check then
      if Model.report_ok report then
        Printf.printf "\nmodel check: OK (every row within %.0f%%)\n"
          (Model.default_tolerance *. 100.0)
      else
        die "model check FAILED: prediction outside the %.0f%% band"
          (Model.default_tolerance *. 100.0)
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(const run $ cost_profile_arg $ golden_file $ check)

let all_cmd =
  let doc =
    "Run every figure (the full benchmark suite), then summarize which paper \
     anchors hold."
  in
  let run quick =
    let sections =
      List.concat_map
        (fun (figures : ?quick:bool -> unit -> Report.section list) ->
          let s = figures ~quick () in
          print_sections s;
          s)
        [ E_micro.all; E_fs.all; Ablations.all ]
    in
    let anchors =
      List.concat_map
        (fun s -> List.map (fun a -> (s.Report.id, a)) s.Report.anchors)
        sections
    in
    let missed = List.filter (fun (_, a) -> not a.Report.ok) anchors in
    print_endline "\nAnchor summary (paper vs measured):";
    List.iter
      (fun (id, a) ->
        Printf.printf "  [??] %s — %s: paper %s, measured %s\n" id
          a.Report.description a.Report.paper a.Report.measured)
      missed;
    Printf.printf "anchors holding: %d/%d\n"
      (List.length anchors - List.length missed)
      (List.length anchors)
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ quick_arg)

let cmds =
  [
    figure_cmd "fig2" "Latency vs result size (Figure 2)." E_micro.fig2;
    figure_cmd "fig3" "Latency with f=1 and f=2 (Figure 3)." E_micro.fig3;
    figure_cmd "fig4" "Throughput for 0/0, 0/4, 4/0 (Figure 4)." E_micro.fig4;
    figure_cmd "fig5" "Digest replies optimization (Figure 5)." E_micro.fig5;
    figure_cmd "fig6" "Request batching optimization (Figure 6)." E_micro.fig6;
    figure_cmd "fig7" "Separate request transmission (Figure 7)." E_micro.fig7;
    figure_cmd "tentative" "Tentative execution (Section 4.4 text)."
      E_micro.tentative;
    figure_cmd "piggyback" "Piggybacked commits (Section 4.4 text)."
      E_micro.piggyback;
    figure_cmd "fig8" "Modified Andrew (Figure 8)." E_fs.fig8;
    figure_cmd "fig9" "PostMark (Figure 9)." E_fs.fig9;
    figure_cmd "ablations" "Beyond-the-paper ablations." Ablations.all;
    latency_cmd;
    throughput_cmd;
    bench_cmd;
    model_cmd;
    trace_cmd;
    profile_cmd;
    monitor_cmd;
    overload_cmd;
    andrew_cmd;
    postmark_cmd;
    chaos_cmd;
    txn_cmd;
    all_cmd;
  ]

let () =
  let doc = "Reproduction of 'Byzantine Fault Tolerance Can Be Fast' (DSN'01)." in
  exit (Cmd.eval (Cmd.group (Cmd.info "bft_lab" ~doc) cmds))
