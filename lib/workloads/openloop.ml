(* Open-loop workload engine: arrivals are generated by a seeded stochastic
   process, independent of in-flight completions — unlike the closed-loop
   clients everywhere else in this repo, which self-throttle (a closed-loop
   client cannot offer more load than the system absorbs, so it can never
   expose saturation collapse). Thousands of logical users are modeled by
   an arrival stream multiplexed over a small pool of client stubs: each
   arrival represents one user issuing one request; if every stub is
   occupied the arrival waits in a backlog queue (its latency clock already
   running), exactly like an open-loop load generator's connection pool. *)

module Engine = Bft_sim.Engine
module Config = Bft_core.Config
module Cluster = Bft_core.Cluster
module Client = Bft_core.Client
module Replica = Bft_core.Replica
module Service = Bft_core.Service
module Monitor = Bft_trace.Monitor
module Rng = Bft_util.Rng
module Stats = Bft_util.Stats

(* --- arrival processes ------------------------------------------------- *)

type process =
  | Poisson of { rate : float }
  | Square_wave of {
      base_rate : float;
      burst_rate : float;
      period : float;
      duty : float;  (* fraction of each period spent at [burst_rate] *)
    }
  | Ramp of { rate_to : float; start : float; duration : float }

(* Each test below holds only for a wanted value: NaN fails every
   comparison, and infinity fails [Float.is_finite]. *)
let positive x = x > 0.0 && Float.is_finite x

let validate_process = function
  | Poisson { rate } ->
    if positive rate then Ok () else Error "poisson rate must be positive and finite"
  | Square_wave { base_rate; burst_rate; period; duty } ->
    if not (base_rate >= 0.0 && Float.is_finite base_rate) then
      Error "base rate must be non-negative and finite"
    else if not (positive burst_rate) then
      Error "burst rate must be positive and finite"
    else if not (positive period) then Error "period must be positive and finite"
    else if not (duty > 0.0 && duty < 1.0) then
      Error "duty must be strictly between 0 and 1"
    else Ok ()
  | Ramp { rate_to; duration; _ } ->
    if positive rate_to && positive duration then Ok ()
    else Error "ramp rate and duration must be positive and finite"

(* The constant-rate segment containing [now]: its rate and the instant it
   ends (for a ramp, of its thinning envelope). Comparisons are on absolute
   times, never on phases: a re-drawn [now] can sit exactly on a duty edge
   (say 1.2), where the phase [1.2 -. 1.0 = 0.1999...] rounds strictly
   below [0.2] — a phase-based test would then report the burst segment
   with a boundary equal to [now] and the piecewise sampler would re-draw
   from the same instant forever. Every branch below returns a boundary
   strictly after [now]. *)
let segment p ~now =
  match p with
  | Poisson { rate } -> (rate, infinity)
  | Square_wave { base_rate; burst_rate; period; duty } ->
    let cycle = period *. Float.of_int (int_of_float (now /. period)) in
    if now < cycle then (base_rate, cycle) (* product rounded past [now] *)
    else
      let edge = cycle +. (duty *. period) in
      if now < edge then (burst_rate, edge)
      else (base_rate, cycle +. period)
  | Ramp { rate_to; start; duration } ->
    if now < start then (0.0, start)
    else if now < start +. duration then (rate_to, start +. duration)
    else (0.0, infinity)

let rate_at p ~now =
  match p with
  | Ramp { start; duration; _ } ->
    fst (segment p ~now) *. Float.max 0.0 ((now -. start) /. duration)
  | Poisson _ | Square_wave _ -> fst (segment p ~now)

(* Sample the next arrival after [now]. Exponential inter-arrivals within
   each constant-rate segment; a draw that crosses a rate boundary is
   re-drawn from the boundary, which is statistically exact for a
   non-homogeneous Poisson process with piecewise-constant rate (the
   exponential is memoryless). A zero-rate segment is skipped outright.
   A ramp is sampled by thinning its envelope: each candidate is kept with
   probability rising linearly from 0 to 1 across the window, which is
   exact for a linear-rate Poisson process. *)
let rec next_arrival rng p ~now =
  let rate, bound = segment p ~now in
  if rate <= 0.0 then
    if bound = infinity then infinity else next_arrival rng p ~now:bound
  else begin
    let t = now +. Rng.exponential rng ~mean:(1.0 /. rate) in
    match p with
    | Ramp { start; duration; _ } ->
      if t >= bound then infinity
      else if Rng.float rng 1.0 < (t -. start) /. duration then t
      else next_arrival rng p ~now:t
    | Poisson _ | Square_wave _ ->
      if t <= bound then t
      else next_arrival rng p ~now:(Float.max bound (Float.succ now))
  end

let mean_rate = function
  | Poisson { rate } -> rate
  | Square_wave { base_rate; burst_rate; duty; _ } ->
    (duty *. burst_rate) +. ((1.0 -. duty) *. base_rate)
  | Ramp { rate_to; _ } -> rate_to /. 2.0

(* --- the stub pool ----------------------------------------------------- *)

(* [on_outcome] gets the arrival time, so latency can run from the
   *arrival*, not from the stub invocation — queueing for a stub is part
   of what the user experiences. *)
type pool = {
  free : Client.t Queue.t;
  backlog : float Queue.t;
  op : Bft_core.Payload.t;
  on_outcome : arrived:float -> Client.outcome -> unit;
  mutable offered : int;
  mutable peak_backlog : int;
}

let pool ~op ~on_outcome stubs =
  let free = Queue.create () in
  List.iter (fun c -> Queue.add c free) stubs;
  { free; backlog = Queue.create (); op; on_outcome; offered = 0; peak_backlog = 0 }

let rec pump p =
  if (not (Queue.is_empty p.free)) && not (Queue.is_empty p.backlog) then begin
    let stub = Queue.pop p.free in
    let arrived = Queue.pop p.backlog in
    Client.invoke stub p.op (fun o ->
        p.on_outcome ~arrived o;
        Queue.add stub p.free;
        pump p);
    pump p
  end

let arrive p at =
  p.offered <- p.offered + 1;
  Queue.add at p.backlog;
  p.peak_backlog <- Stdlib.max p.peak_backlog (Queue.length p.backlog);
  pump p

let offered p = p.offered

let peak_backlog p = p.peak_backlog

(* Sampled one at a time as each fires, so arrivals interleave
   deterministically with protocol progress. *)
let schedule_arrivals engine rng process ~from ~until pool =
  let rec schedule_from t =
    let t' = next_arrival rng process ~now:t in
    if t' < until then
      Engine.schedule_at engine t' (fun () ->
          arrive pool t';
          schedule_from t')
  in
  schedule_from from

(* --- the open-loop driver ---------------------------------------------- *)

type result = {
  ol_offered : int;  (** arrivals generated within the horizon *)
  ol_completed : int;  (** committed and accepted by the issuing user *)
  ol_rejected : int;  (** explicitly rejected by admission control *)
  ol_unresolved : int;  (** still in flight when the run was cut off *)
  ol_sheds : int;  (** BUSY replies sent by replicas (cumulative) *)
  ol_retransmissions : int;
  ol_peak_backlog : int;  (** arrivals waiting for a free stub, worst case *)
  ol_peak_queue : int;  (** worst primary admission-queue depth observed *)
  ol_goodput : float;  (** completed ops per virtual second of horizon *)
  ol_shed_rate : float;  (** sheds per virtual second of horizon *)
  ol_latency : Stats.t;  (** arrival-to-acceptance latency, accepted ops only *)
  ol_safety_violations : int;  (** executed-digest disagreements *)
  ol_monitor : Monitor.t;
}

let run ?config ?(seed = 42) ?(stubs = 32) ?(duration = 10.0)
    ?(cal = Bft_sim.Calibration.default) ?limits process () =
  (match validate_process process with
  | Ok () -> ()
  | Error e -> invalid_arg ("Openloop.run: " ^ e));
  if stubs < 1 then invalid_arg "Openloop.run: stubs must be positive";
  if not (positive duration) then
    invalid_arg "Openloop.run: duration must be positive and finite";
  let config =
    match config with Some c -> c | None -> Config.make ~f:1 ()
  in
  let cluster =
    Cluster.create ~cal ~seed ~client_machines:5 ~config
      ~service:(fun _ -> Service.null ())
      ()
  in
  let engine = Cluster.engine cluster in
  let monitor = Monitor.create ?limits () in
  Cluster.attach_monitor ~meta:[ ("seed", string_of_int seed) ] cluster monitor;
  let stubs = List.init stubs (fun _ -> Cluster.add_client cluster) in
  let completed = ref 0 in
  let rejected = ref 0 in
  let latency = Stats.create () in
  let pool =
    pool
      ~op:(Service.null_op ~read_only:false ~arg_size:0 ~result_size:0)
      ~on_outcome:(fun ~arrived (o : Client.outcome) ->
        if o.Client.rejected then incr rejected
        else begin
          incr completed;
          Stats.add latency (Engine.now engine -. arrived)
        end)
      stubs
  in
  schedule_arrivals engine
    (Rng.split (Rng.of_int seed) "openloop.arrivals")
    process ~from:0.0 ~until:duration pool;
  Engine.run ~until:duration engine;
  (* Arrivals have stopped; let in-flight work and the backlog drain. *)
  Engine.run ~until:(duration +. 30.0) engine;
  let offered = offered pool in
  let sheds =
    Array.fold_left (fun acc r -> acc + Replica.sheds r) 0
      (Cluster.replicas cluster)
  in
  let retransmissions =
    List.fold_left
      (fun acc c -> acc + Client.count c Client.Retransmitted)
      0 stubs
  in
  {
    ol_offered = offered;
    ol_completed = !completed;
    ol_rejected = !rejected;
    ol_unresolved = offered - !completed - !rejected;
    ol_sheds = sheds;
    ol_retransmissions = retransmissions;
    ol_peak_backlog = peak_backlog pool;
    ol_peak_queue = Monitor.peak_queue monitor;
    ol_goodput = float_of_int !completed /. duration;
    ol_shed_rate = float_of_int sheds /. duration;
    ol_latency = latency;
    ol_safety_violations =
      List.length
        (Bft_core.Audit.agreement (Array.to_list (Cluster.replicas cluster)));
    ol_monitor = monitor;
  }

let summary r =
  Printf.sprintf
    "offered %d -> completed %d, rejected %d, unresolved %d; sheds %d \
     (%.0f/s), goodput %.1f ops/s; peak backlog %d, peak queue %d; p50 \
     %.2f ms p99 %.2f ms; retrans %d; safety violations %d"
    r.ol_offered r.ol_completed r.ol_rejected r.ol_unresolved r.ol_sheds
    r.ol_shed_rate r.ol_goodput r.ol_peak_backlog r.ol_peak_queue
    (Stats.p50 r.ol_latency *. 1e3)
    (Stats.p99 r.ol_latency *. 1e3)
    r.ol_retransmissions r.ol_safety_violations
