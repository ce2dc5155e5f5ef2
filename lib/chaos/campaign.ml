module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Rng = Bft_util.Rng
module Fingerprint = Bft_crypto.Fingerprint
module Monitor = Bft_trace.Monitor
module Openloop = Bft_workloads.Openloop
open Bft_core

type violation = { invariant : string; detail : string }

type outcome = {
  seed : int;
  plan : Plan.t;
  ops_total : int;
  ops_completed : int;
  ops_rejected : int;
  sheds : int;
  final_view : int;
  views_after_heal : int;
  sim_time : float;
  violations : violation list;
  alerts : Monitor.alert list;
  monitor : Monitor.t;
}

let failed o = o.violations <> []

(* Campaign shape: fixed so that a (seed, plan) pair pins down the whole
   run. Three steady clients keep a closed-loop shared-counter workload
   running across the whole faulted window — faults that land on an idle
   protocol exercise nothing — plus two clients that fire the
   Client_burst events and (when the plan carries Load_spike/Load_ramp
   events) a pool of stubs that multiplexes an open-loop arrival stream.
   The counter makes execution order client-observable: every Add reply
   is the pre-add value. Admission control runs with a small queue limit
   so spikes actually shed; the campaign then checks overload-specific
   invariants: no silent loss (every operation ends committed or
   explicitly rejected) and queues stay bounded. *)
let f = 1
let steady_clients = 3
let burst_clients = 2
let openloop_stubs = 16 (* stub pool multiplexing Load_spike/Load_ramp arrivals *)
let admission_queue_limit = 16
let shed_retry_budget = 4 (* keep rejection latency well inside the settle budget *)
let steady_think = 0.02 (* mean gap between a reply and the next request *)
let settle_budget = 60.0
let max_views_after_heal = 8

let digest_short d =
  let s = Format.asprintf "%a" Fingerprint.pp d in
  if String.length s > 12 then String.sub s 0 12 else s

(* The safety audit over the audited replicas' trails: agreement on the
   batch at every finally-executed sequence number, agreement on the
   committed reply for every (client, timestamp), and exactly-once
   execution per slot. At most three agreement and three reply findings. *)
let audit_safety replicas audited =
  let rs = List.map (fun rid -> replicas.(rid)) audited in
  let first3 invariant text conflicts =
    List.filteri (fun i _ -> i < 3) conflicts
    |> List.map (fun (key, (rid0, d0), (rid, d)) ->
           { invariant; detail = text key rid0 (digest_short d0) rid (digest_short d) })
  in
  first3 "safety.agreement"
    (Printf.sprintf "seq %d: replica %d executed %s, replica %d executed %s")
    (Audit.agreement rs)
  @ first3 "safety.replies"
      (fun (client, ts) ->
        Printf.sprintf "client %d ts %Ld: replica %d replies %s, replica %d replies %s"
          client ts)
      (Audit.replies rs)
  @ List.map
      (fun (rid, seq) ->
        {
          invariant = "safety.unique_execution";
          detail = Printf.sprintf "replica %d executed seq %d twice" rid seq;
        })
      (Audit.unique_execution rs)

let plan_text plan = String.concat "; " (List.map Plan.event_to_string plan)

let ordering_text = function
  | Config.Single_primary -> "single-primary"
  | Config.Rotating { epoch_length } -> Printf.sprintf "rotating-%d" epoch_length

let run ?(ordering = Config.Single_primary) ?(unsafe_no_commit_quorum = false)
    ?(trace = Bft_trace.Trace.nil) ~seed ~plan () =
  let config =
    Config.make ~f ~checkpoint_interval:8 ~log_window:16 ~ordering
      ~admission_queue_limit ~shed_retry_budget ~unsafe_no_commit_quorum ()
  in
  let n = config.Config.n in
  let cluster =
    Cluster.create ~config ~seed ~client_machines:2 ~trace
      ~service:(fun _ -> Bft_services.Counter.service ())
      ()
  in
  let engine = Cluster.engine cluster in
  let network = Cluster.network cluster in
  let horizon = Stdlib.max 3.0 (Plan.duration plan +. 1.0) in
  (* Always-on health monitor: its gauge scrapes are pure reads, so the
     campaign's outcome is byte-identical with or without it. The bundle
     header carries (seed, plan), which is all it takes to replay. *)
  let monitor = Monitor.create () in
  Cluster.attach_monitor
    ~meta:
      [
        ("campaign.seed", string_of_int seed);
        ("campaign.f", string_of_int f);
        ("campaign.ordering", ordering_text ordering);
        ("campaign.plan", plan_text plan);
      ]
    cluster monitor;
  let camp_rng = Cluster.rng cluster "campaign" in
  let payload = Bft_services.Counter.op_payload (Bft_services.Counter.Add ("shared", 1)) in
  (* workload *)
  let steady = List.init steady_clients (fun _ -> Cluster.add_client cluster) in
  let burst = Array.init burst_clients (fun _ -> Cluster.add_client cluster) in
  let burst_total =
    List.fold_left
      (fun acc e ->
        match e.Plan.action with Plan.Client_burst k -> acc + k | _ -> acc)
      0 plan
  in
  let issued = ref 0 in
  let completed = ref 0 in
  let rejected = ref 0 in
  (* every invocation resolves exactly once: committed, or explicitly
     rejected by admission control past the retry budget *)
  let resolve (o : Client.outcome) =
    if o.Client.rejected then incr rejected else incr completed
  in
  List.iteri
    (fun i client ->
      let rng = Rng.split camp_rng (Printf.sprintf "steady%d" i) in
      let rec step () =
        if Engine.now engine < horizon then begin
          incr issued;
          Client.invoke client payload (fun o ->
              resolve o;
              Engine.schedule engine
                ~delay:(Rng.float rng (2.0 *. steady_think))
                step)
        end
      in
      Engine.schedule engine ~delay:(Rng.float rng steady_think) step)
    steady;
  let burst_pending = Array.make burst_clients 0 in
  let rec pump_burst j =
    if burst_pending.(j) > 0 && not (Client.busy burst.(j)) then begin
      burst_pending.(j) <- burst_pending.(j) - 1;
      Client.invoke burst.(j) payload (fun o ->
          resolve o;
          pump_burst j)
    end
  in
  (* Open-loop load (Load_spike / Load_ramp) runs through Openloop's stub
     pool, so a spike can offer far more load than the closed-loop clients
     ever would — that pressure is what admission control sheds. Each
     event samples from its own RNG, split in firing order. The stubs only
     exist when the plan carries open-loop events, keeping all other
     campaigns byte-identical to earlier runs of the same (seed, plan). *)
  let plan_has_openloop =
    List.exists
      (fun e ->
        match e.Plan.action with
        | Plan.Load_spike _ | Plan.Load_ramp _ -> true
        | _ -> false)
      plan
  in
  let pool =
    Openloop.pool ~op:payload
      ~on_outcome:(fun ~arrived:_ o -> resolve o)
      (if plan_has_openloop then
         List.init openloop_stubs (fun _ -> Cluster.add_client cluster)
       else [])
  in
  let open_loop_events = ref 0 in
  let open_loop ~duration process_from =
    let rng = Rng.split camp_rng (Printf.sprintf "openloop%d" !open_loop_events) in
    incr open_loop_events;
    let from = Engine.now engine in
    Openloop.schedule_arrivals engine rng (process_from from) ~from
      ~until:(from +. duration) pool
  in
  (* plan execution *)
  let ever_byz = Array.make n false in
  let crashed = Array.make n false in
  let apply = function
    | Plan.Crash r ->
      crashed.(r) <- true;
      Cluster.crash_replica cluster r
    | Plan.Crash_owner ->
      (* Resolved at fire time: whichever replica the most advanced
         reachable replica says owns the next sequence number (the epoch
         owner under rotating ordering, the primary otherwise). A fully
         crashed cluster has no reporter; then there is nothing to crash. *)
      let reporter = ref None in
      Array.iteri
        (fun i r ->
          if Network.is_up network (Cluster.replica_node cluster i) then
            match !reporter with
            | Some best when Replica.view best >= Replica.view r -> ()
            | _ -> reporter := Some r)
        (Cluster.replicas cluster);
      (match !reporter with
      | None -> ()
      | Some r ->
        let owner = Replica.ordering_owner r in
        crashed.(owner) <- true;
        Cluster.crash_replica cluster owner)
    | Plan.Restart r ->
      crashed.(r) <- false;
      Cluster.restart_replica cluster r
    | Plan.Partition groups ->
      Network.install_partition network
        ~groups:(List.map (List.map (Cluster.replica_node cluster)) groups)
    | Plan.Heal -> Network.heal_partition network
    | Plan.Set_loss p -> Network.set_loss network p
    | Plan.Set_dup p -> Network.set_duplication network p
    | Plan.Behavior_switch (r, b) ->
      if not (Behavior.is_correct b) then ever_byz.(r) <- true;
      Cluster.set_behavior cluster r b
    | Plan.Client_burst k ->
      for j = 0 to k - 1 do
        let c = j mod burst_clients in
        burst_pending.(c) <- burst_pending.(c) + 1
      done;
      for c = 0 to burst_clients - 1 do
        pump_burst c
      done
    | Plan.Load_spike { rate; duration } ->
      open_loop ~duration (fun _ -> Openloop.Poisson { rate })
    | Plan.Load_ramp { rate_to; duration } ->
      open_loop ~duration (fun start -> Openloop.Ramp { rate_to; start; duration })
  in
  List.iter
    (fun e -> Engine.schedule_at engine e.Plan.at (fun () -> apply e.Plan.action))
    plan;
  (* run the faulted window, then force-heal everything *)
  Cluster.run ~until:horizon cluster;
  Network.heal_partition network;
  Network.set_loss network 0.0;
  Network.set_duplication network 0.0;
  for r = 0 to n - 1 do
    if crashed.(r) then begin
      crashed.(r) <- false;
      Cluster.restart_replica cluster r
    end;
    if Replica.behavior (Cluster.replica cluster r) <> Behavior.Correct then
      Cluster.set_behavior cluster r Behavior.Correct
  done;
  let replicas = Cluster.replicas cluster in
  let audited =
    List.init n (fun r -> r) |> List.filter (fun r -> not ever_byz.(r))
  in
  let max_view () =
    List.fold_left (fun acc r -> Stdlib.max acc (Replica.view replicas.(r))) 0 audited
  in
  let view_at_heal = max_view () in
  (* settle: advance in 1 s chunks until the workload drains (plus two
     chunks of slack for trailing commits), a safety audit trips, or the
     budget runs out *)
  let violations = ref [] in
  let deadline = horizon +. settle_budget in
  let ops_total () = !issued + burst_total + Openloop.offered pool in
  let resolved () = !completed + !rejected in
  let rec settle t slack =
    let safety = audit_safety replicas audited in
    if safety <> [] then violations := safety
    else if resolved () >= ops_total () && slack >= 2 then ()
    else if t >= deadline then begin
      if resolved () < ops_total () then
        violations :=
          [
            {
              invariant = "overload.no_silent_loss";
              detail =
                Printf.sprintf
                  "%d of %d client operations resolved (%d committed, %d \
                   rejected) %.0f s after heal"
                  (resolved ()) (ops_total ()) !completed !rejected
                  settle_budget;
            };
          ]
    end
    else begin
      let t' = Stdlib.min (t +. 1.0) deadline in
      Cluster.run ~until:t' cluster;
      settle t' (if resolved () >= ops_total () then slack + 1 else 0)
    end
  in
  settle horizon 0;
  (* Resolution accounting must be exact, not just "at least": a callback
     firing twice (or an op both committing and being reported rejected)
     is silent corruption of the ledger, so it fails the same invariant. *)
  if !violations = [] && resolved () <> ops_total () then
    violations :=
      [
        {
          invariant = "overload.no_silent_loss";
          detail =
            Printf.sprintf
              "%d operations issued but %d resolutions observed (%d \
               committed, %d rejected)"
              (ops_total ()) (resolved ()) !completed !rejected;
        };
      ];
  if
    !violations = []
    && config.Config.admission_queue_limit > 0
    && Monitor.peak_queue monitor > config.Config.admission_queue_limit
  then
    violations :=
      [
        {
          invariant = "overload.queue_bounded";
          detail =
            Printf.sprintf
              "peak admission queue depth %d exceeds configured limit %d"
              (Monitor.peak_queue monitor)
              config.Config.admission_queue_limit;
        };
      ];
  let final_view = max_view () in
  let views_after_heal = Stdlib.max 0 (final_view - view_at_heal) in
  if !violations = [] && views_after_heal > max_views_after_heal then
    violations :=
      [
        {
          invariant = "liveness.views";
          detail =
            Printf.sprintf "%d view changes after heal (bound %d)"
              views_after_heal max_views_after_heal;
        };
      ];
  (* An invariant violation is an external post-mortem trigger: dump a
     bundle even if no detector fired (safety bugs can be silent). *)
  (match !violations with
  | [] -> ()
  | v :: _ ->
    Monitor.trigger monitor ~at:(Cluster.now cluster)
      ~reason:(v.invariant ^ ": " ^ v.detail));
  {
    seed;
    plan;
    ops_total = ops_total ();
    ops_completed = !completed;
    ops_rejected = !rejected;
    sheds = Array.fold_left (fun acc r -> acc + Replica.sheds r) 0 replicas;
    final_view;
    views_after_heal;
    sim_time = Cluster.now cluster;
    violations = !violations;
    alerts = Monitor.alerts monitor;
    monitor;
  }

(* --- reporting --- *)

let escape = Bft_trace.Trace.escape

let violations_json vs =
  List.map
    (fun v ->
      Printf.sprintf "{\"invariant\":\"%s\",\"detail\":\"%s\"}"
        (escape v.invariant) (escape v.detail))
    vs
  |> String.concat "," |> Printf.sprintf "[%s]"

let jsonl ?(campaign = 0) ?bundle o =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "{\"campaign\":%d,\"seed\":%d,\"events\":%d,\"ops_total\":%d,\"ops_completed\":%d,\"ops_rejected\":%d,\"sheds\":%d,\"final_view\":%d,\"views_after_heal\":%d,\"sim_time\":%.6f,"
    campaign o.seed (List.length o.plan) o.ops_total o.ops_completed
    o.ops_rejected o.sheds o.final_view o.views_after_heal o.sim_time;
  (match bundle with
  | Some p -> Printf.bprintf b "\"bundle\":\"%s\"," (escape p)
  | None -> ());
  Printf.bprintf b "\"violations\":%s,\"alerts\":%s,\"plan\":[%s]}"
    (violations_json o.violations) (Monitor.alerts_json o.alerts)
    (String.concat ","
       (List.map (fun e -> "\"" ^ escape (Plan.event_to_string e) ^ "\"") o.plan));
  Buffer.contents b

(* --- shrinking --- *)

let shrink ~run plan =
  let last_outcome = ref (run plan) in
  if not (failed !last_outcome) then (plan, !last_outcome)
  else
    let rec pass events =
      (* try deleting each event in turn; restart the scan after any hit so
         we converge to a 1-minimal plan *)
      let rec try_each prefix = function
        | [] -> None
        | e :: rest ->
          let candidate = List.rev_append prefix rest in
          let o = run candidate in
          if failed o then begin
            last_outcome := o;
            Some candidate
          end
          else try_each (e :: prefix) rest
      in
      match try_each [] events with
      | Some smaller -> pass smaller
      | None -> events
    in
    let minimal = pass plan in
    (minimal, !last_outcome)
