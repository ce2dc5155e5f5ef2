(* Always-on health monitor: periodic gauge observation, typed anomaly
   detectors, streaming SLO quantiles, and a flight recorder.

   The monitor is deliberately passive and generic: it knows nothing about
   the simulator or the protocol modules. A deployment layer (Cluster, the
   shard Rig, a chaos campaign) samples its own state into a [gauges]
   record on a virtual-time cadence and feeds it to [observe]; completed
   client operations are pushed into [observe_latency]. Everything the
   monitor does is pure arithmetic on those observations — no randomness,
   no wall clock, no CPU charges — so attaching a monitor never perturbs a
   run's virtual-time results.

   Detectors are edge-triggered: an alert fires once when its condition
   crosses the configured limit and re-arms only after the condition
   clears, so a persistent fault yields one typed alert, not one per
   sampling tick. *)

module Stats = Bft_util.Stats

(* --- observations ----------------------------------------------------- *)

type replica_gauges = {
  r_id : int;
  r_reachable : bool;
      (** scrape succeeded: the machine is up from the monitor's vantage *)
  r_view : int;
  r_last_executed : int;
  r_last_committed : int;
  r_last_stable : int;
  r_stable_digest : string;  (** printable digest of the stable checkpoint *)
  r_queue_depth : int;  (** primary batching queue *)
  r_backlog : int;  (** requests received but not yet executed *)
  r_log_depth : int;  (** live slots in the message log *)
  r_replay_dropped : int;  (** cumulative authenticator replays dropped *)
  r_shed : int;  (** cumulative requests shed by admission control *)
  r_null_fill : int;
      (** cumulative rotating-mode null fills: own slots abandoned below an
          epoch handoff and filled with null batches *)
  r_reclaim : int;
      (** cumulative rotating-mode reclaims: a silent owner's in-window
          slots nulled by the primary *)
  r_ordering_owner : int;
      (** who this replica expects to propose the next uncommitted slot:
          the view primary, or the current epoch owner under rotating
          ordering *)
}

type gauges = {
  g_time : float;
  g_completed : int;  (** cumulative client operations completed *)
  g_rejected : int;  (** cumulative client operations explicitly rejected *)
  g_replicas : replica_gauges array;
}

(* --- limits ----------------------------------------------------------- *)

type limits = {
  stall_after : float;
  silent_after : float;
  slo_p99 : float;
  slo_min_samples : int;
}

(* [stall_after]/[silent_after] sit below the protocol's view-change
   timeout (0.25 s by default) so a crashed primary is flagged while the
   backups are still waiting it out, yet far above any pause a healthy
   cluster shows between commits (microseconds to low milliseconds). *)
let default_limits =
  { stall_after = 0.2; silent_after = 0.15; slo_p99 = 0.5; slo_min_samples = 50 }

(* --- alerts ----------------------------------------------------------- *)

type alert_kind =
  | Stalled_commit of { seqno : int; stuck_for : float; backlog : int }
  | Silent_leader of { view : int; primary : int; silent_for : float }
  | Divergent_checkpoint of { seqno : int; replicas : (int * string) list }
  | Slo_breach of { p99 : float; limit : float; samples : int }
  | Overload of { shed_rate : float; p99 : float; limit : float }

type alert = { a_at : float; a_group : string; a_kind : alert_kind }

let kind_name = function
  | Stalled_commit _ -> "monitor.stalled_commit"
  | Silent_leader _ -> "monitor.silent_leader"
  | Divergent_checkpoint _ -> "monitor.divergent_checkpoint"
  | Slo_breach _ -> "monitor.slo_breach"
  | Overload _ -> "monitor.overload"

let alert_detail a =
  match a.a_kind with
  | Stalled_commit { seqno; stuck_for; backlog } ->
    Printf.sprintf "commit point stuck at seq %d for %.3f s with backlog %d"
      seqno stuck_for backlog
  | Silent_leader { view; primary; silent_for } ->
    Printf.sprintf "primary %d of view %d silent for %.3f s with work pending"
      primary view silent_for
  | Divergent_checkpoint { seqno; replicas } ->
    Printf.sprintf "stable checkpoint %d digests diverge: %s" seqno
      (String.concat ", "
         (List.map (fun (r, d) -> Printf.sprintf "r%d=%s" r d) replicas))
  | Slo_breach { p99; limit; samples } ->
    Printf.sprintf "latency p99 %.1f ms over SLO %.1f ms (%d samples)"
      (p99 *. 1e3) (limit *. 1e3) samples
  | Overload { shed_rate; p99; limit } ->
    Printf.sprintf
      "overload: admitted-traffic p99 %.1f ms over SLO %.1f ms while \
       shedding %.0f req/s — admission control is not absorbing the excess"
      (p99 *. 1e3) (limit *. 1e3) shed_rate

let alert_json a =
  let b = Buffer.create 128 in
  Printf.bprintf b "{\"at\":%.6f,\"group\":\"%s\",\"kind\":\"%s\""
    a.a_at (Trace.escape a.a_group) (kind_name a.a_kind);
  (match a.a_kind with
  | Stalled_commit { seqno; stuck_for; backlog } ->
    Printf.bprintf b ",\"seqno\":%d,\"stuck_for\":%.6f,\"backlog\":%d" seqno
      stuck_for backlog
  | Silent_leader { view; primary; silent_for } ->
    Printf.bprintf b ",\"view\":%d,\"primary\":%d,\"silent_for\":%.6f" view
      primary silent_for
  | Divergent_checkpoint { seqno; replicas } ->
    Printf.bprintf b ",\"seqno\":%d,\"digests\":[" seqno;
    List.iteri
      (fun i (r, d) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "{\"replica\":%d,\"digest\":\"%s\"}" r (Trace.escape d))
      replicas;
    Buffer.add_char b ']'
  | Slo_breach { p99; limit; samples } ->
    Printf.bprintf b ",\"p99\":%.6f,\"limit\":%.6f,\"samples\":%d" p99 limit
      samples
  | Overload { shed_rate; p99; limit } ->
    Printf.bprintf b ",\"shed_rate\":%.6f,\"p99\":%.6f,\"limit\":%.6f"
      shed_rate p99 limit);
  Printf.bprintf b ",\"detail\":\"%s\"}" (Trace.escape (alert_detail a));
  Buffer.contents b

(* --- the monitor ------------------------------------------------------ *)

type recorder = {
  fr_trace : Trace.t;
  fr_profile : (unit -> Profile.t) option;
  fr_trace_last : int;  (** newest trace events included in a bundle *)
  fr_on_bundle : alert option -> string -> unit;
}

type t = {
  group : string;
  limits : limits;
  sketch : Stats.Sketch.t;
  mutable alerts_rev : alert list;
  mutable alert_count : int;
  (* gauge ring for the flight-recorder window *)
  window : gauges option array;
  mutable seen : int;  (** gauge rows ever observed *)
  (* derived gauges from the newest observation *)
  mutable last : gauges option;
  mutable rate : float;  (** completed ops per virtual second, last interval *)
  mutable view_changes : int;  (** cumulative view advances observed *)
  (* detector state *)
  mutable commit_mark : int;
  mutable commit_advanced_at : float;
  mutable stalled_armed : bool;
  mutable leader_view : int;
  mutable leader_id : int;  (** the proposer currently being watched *)
  mutable leader_progress : int;
  mutable leader_advanced_at : float;
  mutable silent_armed : bool;
  mutable divergence_seen : (int, unit) Hashtbl.t;
  mutable slo_armed : bool;
  (* overload gauges *)
  mutable shed_total : int;  (** cumulative sheds at the newest tick *)
  mutable null_fill_total : int;  (** cumulative rotating null fills *)
  mutable reclaim_total : int;  (** cumulative rotating reclaims *)
  mutable shed_rate : float;  (** sheds per virtual second, last interval *)
  mutable rejected_total : int;  (** cumulative explicit client rejections *)
  mutable peak_queue : int;  (** highest per-replica queue depth observed *)
  (* flight recorder *)
  mutable recorder : recorder option;
  mutable last_bundle : string option;
  mutable bundle_count : int;
  mutable meta : (string * string) list;
}

let create ?(limits = default_limits) ?(window = 256) ?(group = "") () =
  if window < 1 then invalid_arg "Monitor.create: window";
  {
    group;
    limits;
    sketch = Stats.Sketch.create ();
    alerts_rev = [];
    alert_count = 0;
    window = Array.make window None;
    seen = 0;
    last = None;
    rate = 0.0;
    view_changes = 0;
    commit_mark = -1;
    commit_advanced_at = 0.0;
    stalled_armed = true;
    leader_view = -1;
    leader_id = -1;
    leader_progress = -1;
    leader_advanced_at = 0.0;
    silent_armed = true;
    divergence_seen = Hashtbl.create 8;
    slo_armed = true;
    shed_total = 0;
    null_fill_total = 0;
    reclaim_total = 0;
    shed_rate = 0.0;
    rejected_total = 0;
    peak_queue = 0;
    recorder = None;
    last_bundle = None;
    bundle_count = 0;
    meta = [];
  }

let group t = t.group

let limits t = t.limits

let alerts t = List.rev t.alerts_rev

let alert_count t = t.alert_count

let healthy t = t.alert_count = 0

let latency_sketch t = t.sketch

let throughput t = t.rate

let view_changes t = t.view_changes

let samples_observed t = t.seen

let shed_total t = t.shed_total

let null_fill_total t = t.null_fill_total

let reclaim_total t = t.reclaim_total

let shed_rate t = t.shed_rate

let rejected_total t = t.rejected_total

let peak_queue t = t.peak_queue

let set_meta t meta = t.meta <- meta

(* --- gauge-row rendering ---------------------------------------------- *)

let gauges_json t g =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "{\"t\":%.6f,\"group\":\"%s\",\"completed\":%d,\"rejected\":%d,\"replicas\":["
    g.g_time (Trace.escape t.group) g.g_completed g.g_rejected;
  Array.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"id\":%d,\"up\":%b,\"view\":%d,\"exec\":%d,\"commit\":%d,\"stable\":%d,\"digest\":\"%s\",\"queue\":%d,\"backlog\":%d,\"log\":%d,\"replay_dropped\":%d,\"shed\":%d,\"null_fill\":%d,\"reclaim\":%d,\"owner\":%d}"
        r.r_id r.r_reachable r.r_view r.r_last_executed r.r_last_committed
        r.r_last_stable (Trace.escape r.r_stable_digest) r.r_queue_depth
        r.r_backlog r.r_log_depth r.r_replay_dropped r.r_shed r.r_null_fill
        r.r_reclaim r.r_ordering_owner)
    g.g_replicas;
  Buffer.add_string b "]}";
  Buffer.contents b

let window_rows t =
  let n = Stdlib.min t.seen (Array.length t.window) in
  let first = t.seen - n in
  let rows = ref [] in
  for i = t.seen - 1 downto first do
    match t.window.(i mod Array.length t.window) with
    | Some g -> rows := g :: !rows
    | None -> ()
  done;
  !rows

(* --- flight recorder -------------------------------------------------- *)

let set_flight_recorder ?(trace = Trace.nil) ?profile ?(trace_last = 512)
    ?(on_bundle = fun _ _ -> ()) t () =
  t.recorder <-
    Some
      {
        fr_trace = trace;
        fr_profile = profile;
        fr_trace_last = trace_last;
        fr_on_bundle = on_bundle;
      }

(* The bundle is replayable JSONL: a [postmortem] header carrying the
   caller's metadata (a chaos campaign records its seed and plan text, so
   the failure can be re-run from the bundle alone), the alert log, the
   SLO summary, the recent gauge window, the CPU profile and the newest
   protocol-trace events — each line one self-describing record. *)
let render_bundle t ~at ~reason alert =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"type\":\"postmortem\",\"at\":%.6f,\"group\":\"%s\",\"reason\":\"%s\""
    at (Trace.escape t.group) (Trace.escape reason);
  List.iter
    (fun (k, v) ->
      Printf.bprintf b ",\"%s\":\"%s\"" (Trace.escape k) (Trace.escape v))
    t.meta;
  Buffer.add_string b "}\n";
  (match alert with
  | Some a ->
    Buffer.add_string b "{\"type\":\"alert\",\"alert\":";
    Buffer.add_string b (alert_json a);
    Buffer.add_string b "}\n"
  | None -> ());
  List.iter
    (fun a ->
      Buffer.add_string b "{\"type\":\"alert_log\",\"alert\":";
      Buffer.add_string b (alert_json a);
      Buffer.add_string b "}\n")
    (alerts t);
  let sk = t.sketch in
  if Stats.Sketch.count sk > 0 then
    Printf.bprintf b
      "{\"type\":\"slo\",\"samples\":%d,\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f,\"max\":%.6f}\n"
      (Stats.Sketch.count sk) (Stats.Sketch.p50 sk) (Stats.Sketch.p95 sk)
      (Stats.Sketch.p99 sk) (Stats.Sketch.max sk);
  List.iter
    (fun g ->
      Buffer.add_string b "{\"type\":\"gauges\",\"row\":";
      Buffer.add_string b (gauges_json t g);
      Buffer.add_string b "}\n")
    (window_rows t);
  (match t.recorder with
  | Some { fr_profile = Some profile; _ } ->
    let p = profile () in
    String.split_on_char '\n' (Profile.jsonl p)
    |> List.iter (fun line ->
           if line <> "" then begin
             Buffer.add_string b "{\"type\":\"profile\",\"node_profile\":";
             Buffer.add_string b line;
             Buffer.add_string b "}\n"
           end)
  | _ -> ());
  (match t.recorder with
  | Some { fr_trace; fr_trace_last; _ } when Trace.enabled fr_trace ->
    let events = Trace.events fr_trace in
    let total = List.length events in
    let skip = Stdlib.max 0 (total - fr_trace_last) in
    List.iteri
      (fun i e ->
        if i >= skip then begin
          Buffer.add_string b "{\"type\":\"trace\",\"event\":";
          Buffer.add_string b (Trace.event_jsonl e);
          Buffer.add_string b "}\n"
        end)
      events
  | _ -> ());
  Buffer.contents b

let dump_bundle t ~at ~reason alert =
  match t.recorder with
  | None -> ()
  | Some r ->
    let bundle = render_bundle t ~at ~reason alert in
    t.last_bundle <- Some bundle;
    t.bundle_count <- t.bundle_count + 1;
    r.fr_on_bundle alert bundle

let last_bundle t = t.last_bundle

let bundle_count t = t.bundle_count

let trigger t ~at ~reason = dump_bundle t ~at ~reason None

(* --- detectors -------------------------------------------------------- *)

let raise_alert t ~at kind =
  let a = { a_at = at; a_group = t.group; a_kind = kind } in
  t.alerts_rev <- a :: t.alerts_rev;
  t.alert_count <- t.alert_count + 1;
  dump_bundle t ~at ~reason:("alert:" ^ kind_name kind) (Some a)

let observe_latency t latency = Stats.Sketch.add t.sketch latency

let check_slo t ~at =
  let sk = t.sketch in
  if Stats.Sketch.count sk >= t.limits.slo_min_samples then begin
    let p99 = Stats.Sketch.p99 sk in
    if p99 > t.limits.slo_p99 then begin
      if t.slo_armed then begin
        t.slo_armed <- false;
        (* Shedding by itself is healthy degradation (a gauge, never an
           alert); a tail-latency breach on *admitted* traffic while the
           system is already shedding means admission control is not
           absorbing the excess — a distinct, actionable overload alert. *)
        if t.shed_rate > 0.0 then
          raise_alert t ~at
            (Overload { shed_rate = t.shed_rate; p99; limit = t.limits.slo_p99 })
        else
          raise_alert t ~at
            (Slo_breach
               { p99; limit = t.limits.slo_p99; samples = Stats.Sketch.count sk })
      end
    end
    else if p99 < 0.8 *. t.limits.slo_p99 then t.slo_armed <- true
  end

let observe t g =
  let now = g.g_time in
  (* ring the gauge window *)
  t.window.(t.seen mod Array.length t.window) <- Some g;
  t.seen <- t.seen + 1;
  let reachable =
    Array.to_list g.g_replicas |> List.filter (fun r -> r.r_reachable)
  in
  let fold f init = List.fold_left f init reachable in
  let max_committed = fold (fun acc r -> Stdlib.max acc r.r_last_committed) 0 in
  let backlog = fold (fun acc r -> acc + r.r_backlog + r.r_queue_depth) 0 in
  let view = fold (fun acc r -> Stdlib.max acc r.r_view) 0 in
  (* throughput gauge: completions per virtual second since the last tick *)
  (match t.last with
  | Some prev when now > prev.g_time ->
    t.rate <-
      float_of_int (g.g_completed - prev.g_completed) /. (now -. prev.g_time)
  | _ -> ());
  (* overload gauges: cumulative sheds, shed rate over the last interval,
     explicit client rejections, and the highest queue depth ever observed
     (the chaos queue-bound invariant reads [peak_queue]) *)
  let shed_now = Array.fold_left (fun acc r -> acc + r.r_shed) 0 g.g_replicas in
  (match t.last with
  | Some prev when now > prev.g_time ->
    let shed_prev =
      Array.fold_left (fun acc r -> acc + r.r_shed) 0 prev.g_replicas
    in
    t.shed_rate <- float_of_int (shed_now - shed_prev) /. (now -. prev.g_time)
  | _ -> ());
  t.shed_total <- shed_now;
  t.null_fill_total <-
    Array.fold_left (fun acc r -> acc + r.r_null_fill) 0 g.g_replicas;
  t.reclaim_total <-
    Array.fold_left (fun acc r -> acc + r.r_reclaim) 0 g.g_replicas;
  t.rejected_total <- g.g_rejected;
  Array.iter
    (fun r -> if r.r_queue_depth > t.peak_queue then t.peak_queue <- r.r_queue_depth)
    g.g_replicas;
  (* view-change-rate gauge: cumulative view advances *)
  (match t.last with
  | Some prev ->
    let prev_view =
      Array.to_list prev.g_replicas
      |> List.filter (fun r -> r.r_reachable)
      |> List.fold_left (fun acc r -> Stdlib.max acc r.r_view) 0
    in
    if view > prev_view then t.view_changes <- t.view_changes + (view - prev_view)
  | None -> ());
  (* stalled commit point: the group-wide commit point has not advanced
     for [stall_after] while reachable replicas report pending work *)
  if t.commit_mark < 0 || max_committed > t.commit_mark then begin
    t.commit_mark <- max_committed;
    t.commit_advanced_at <- now;
    t.stalled_armed <- true
  end
  else if
    t.stalled_armed && backlog > 0
    && now -. t.commit_advanced_at >= t.limits.stall_after
  then begin
    t.stalled_armed <- false;
    raise_alert t ~at:now
      (Stalled_commit
         {
           seqno = max_committed;
           stuck_for = now -. t.commit_advanced_at;
           backlog;
         })
  end;
  (* silent leader: the replica that must propose next is unreachable or
     making no execution progress while the group has pending work. The
     watched proposer is whatever a reachable replica in the newest view
     reports as its ordering owner — the view primary in single-primary
     mode, the current epoch owner under rotating ordering — so leadership
     handoffs re-aim the detector without a view change. *)
  let n = Array.length g.g_replicas in
  if n > 0 then begin
    let primary =
      match List.find_opt (fun r -> r.r_view = view) reachable with
      | Some r when r.r_ordering_owner >= 0 -> r.r_ordering_owner
      | _ -> view mod n
    in
    let progress =
      match Array.find_opt (fun r -> r.r_id = primary) g.g_replicas with
      | Some r when r.r_reachable -> r.r_last_executed + r.r_last_committed
      | _ -> -1 (* unreachable: no scrape, no progress *)
    in
    if view <> t.leader_view || primary <> t.leader_id then begin
      t.leader_view <- view;
      t.leader_id <- primary;
      t.leader_progress <- progress;
      t.leader_advanced_at <- now;
      t.silent_armed <- true
    end
    else if progress > t.leader_progress then begin
      t.leader_progress <- progress;
      t.leader_advanced_at <- now;
      t.silent_armed <- true
    end
    else if
      t.silent_armed && backlog > 0
      && now -. t.leader_advanced_at >= t.limits.silent_after
    then begin
      t.silent_armed <- false;
      raise_alert t ~at:now
        (Silent_leader
           { view; primary; silent_for = now -. t.leader_advanced_at })
    end
  end;
  (* divergent stable checkpoints: two reachable replicas disagree on the
     digest of the same stable sequence number *)
  let by_seq : (int, int * string) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if r.r_stable_digest <> "" then begin
        match Hashtbl.find_opt by_seq r.r_last_stable with
        | None -> Hashtbl.replace by_seq r.r_last_stable (r.r_id, r.r_stable_digest)
        | Some (r0, d0) ->
          if d0 <> r.r_stable_digest
             && not (Hashtbl.mem t.divergence_seen r.r_last_stable)
          then begin
            Hashtbl.replace t.divergence_seen r.r_last_stable ();
            raise_alert t ~at:now
              (Divergent_checkpoint
                 {
                   seqno = r.r_last_stable;
                   replicas = [ (r0, d0); (r.r_id, r.r_stable_digest) ];
                 })
          end
      end)
    reachable;
  (* tail-latency SLO *)
  check_slo t ~at:now;
  t.last <- Some g

(* --- reporting -------------------------------------------------------- *)

let checkpoint_lag t =
  match t.last with
  | None -> 0
  | Some g ->
    Array.fold_left
      (fun acc r ->
        if r.r_reachable then Stdlib.max acc (r.r_last_executed - r.r_last_stable)
        else acc)
      0 g.g_replicas

let replay_drops t =
  match t.last with
  | None -> 0
  | Some g -> Array.fold_left (fun acc r -> acc + r.r_replay_dropped) 0 g.g_replicas

let summary t =
  let sk = t.sketch in
  let quant f = if Stats.Sketch.count sk = 0 then nan else f sk *. 1e3 in
  Printf.sprintf
    "%s%d sample%s, %d alert%s; throughput %.0f ops/s; latency p50 %.2f ms \
     p95 %.2f ms p99 %.2f ms (%d ops); view changes %d; checkpoint lag %d; \
     replay drops %d%s"
    (if t.group = "" then "" else t.group ^ ": ")
    t.seen
    (if t.seen = 1 then "" else "s")
    t.alert_count
    (if t.alert_count = 1 then "" else "s")
    t.rate (quant Stats.Sketch.p50) (quant Stats.Sketch.p95)
    (quant Stats.Sketch.p99) (Stats.Sketch.count sk) t.view_changes
    (checkpoint_lag t) (replay_drops t)
    (if t.shed_total = 0 && t.rejected_total = 0 then ""
     else
       Printf.sprintf "; shed %d (rejected %d, peak queue %d)" t.shed_total
         t.rejected_total t.peak_queue)
    ^ (if t.null_fill_total = 0 && t.reclaim_total = 0 then ""
       else
         Printf.sprintf "; rotate null-fill %d reclaim %d" t.null_fill_total
           t.reclaim_total)

let alerts_json t =
  let b = Buffer.create 128 in
  Buffer.add_char b '[';
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (alert_json a))
    (alerts t);
  Buffer.add_char b ']';
  Buffer.contents b
