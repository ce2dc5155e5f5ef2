open Types
module Timer = Bft_sim.Timer
module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Fingerprint = Bft_crypto.Fingerprint
module Rng = Bft_util.Rng
module Trace = Bft_trace.Trace

type outcome = {
  result : Payload.t;
  latency : float;
  retries : int;
  view : view;
  rejected : bool;
}

type reply_record = {
  rr_tentative : bool;
  rr_digest : Fingerprint.t;
  rr_full : Payload.t option;
  rr_view : view;
}

(* Running acceptance counts for one result digest, maintained
   incrementally as replies arrive or are superseded — the acceptance
   check is O(1) per reply instead of rebuilding a digest->counts table
   (O(replies^2) per request). *)
type tally = {
  mutable t_total : int;
  mutable t_committed : int;
  mutable t_full : Payload.t option;
  mutable t_full_committed : bool;
      (* the stored full body came from a committed (non-tentative) reply *)
}

type pending = {
  ts : int64;
  op : Payload.t;
  mutable as_read_only : bool;  (** current transmission mode *)
  mutable full_replies : bool;
  replier : int;
  callback : outcome -> unit;
  started : float;
  mutable retries : int;
  mutable busy_retries : int;  (** BUSY replies absorbed for this op *)
  replies : (replica_id, reply_record) Hashtbl.t;
  tallies : (Fingerprint.t, tally) Hashtbl.t;
  mutable timer : Timer.t;
}

type t = {
  config : Config.t;
  transport : Transport.t;
  replicas : Transport.peer array;
  rng : Rng.t;
  mutable next_ts : int64;
  mutable pending : pending option;
  last_views : int array;  (** last view reported by each replica *)
  metrics : Metrics.t;
  mutable latency_probe : float -> unit;
      (** health-monitor hook, called with each completed op's latency *)
}

let id t = Transport.principal t.transport

let metrics t = t.metrics

let set_latency_probe t probe = t.latency_probe <- probe

(* Client events are stamped with the engine clock — the same clock the
   latency samples use — so a folded timeline sums exactly to the
   reported end-to-end latency. *)
let emit_trace t ~req_id ?detail kind =
  let trc = Network.trace (Transport.network t.transport) in
  if Trace.enabled trc then
    Trace.emit trc
      ~vtime:(Engine.now (Transport.engine t.transport))
      ~node:(id t) ~req_id ?detail kind

let trace_req t (p : pending) = Trace.req_id ~client:(id t) ~ts:p.ts

let busy t = Option.is_some t.pending

(* The (f+1)-th largest view reported by distinct replicas: at least one
   correct replica is in (or past) that view, so f liars cannot push the
   estimate forward. *)
let view_estimate t =
  let sorted = Array.copy t.last_views in
  Array.sort (fun a b -> compare b a) sorted;
  sorted.(t.config.Config.f)

let primary_peer t = t.replicas.(primary_of_view ~n:t.config.Config.n (view_estimate t))

(* Where a fresh request goes. In rotating-ordering mode clients are
   spread over the orderers by the same (client + view) mod n map the
   replicas use, so ingestion cost is divided n ways instead of
   concentrating on the view primary. Retransmissions multicast (see
   [retransmit]), so a wrong estimate costs one timeout, never liveness. *)
let home_peer t =
  match t.config.Config.ordering with
  | Config.Single_primary -> primary_peer t
  | Config.Rotating _ ->
    t.replicas.((id t + view_estimate t) mod t.config.Config.n)

(* The replica whose BUSY (admission-control shed) replies are credible:
   the one our fresh requests are routed to. *)
let shedding_orderer t =
  match t.config.Config.ordering with
  | Config.Single_primary -> primary_of_view ~n:t.config.Config.n (view_estimate t)
  | Config.Rotating _ -> (id t + view_estimate t) mod t.config.Config.n

let all_peers t = Array.to_list t.replicas

let request_of t p =
  {
    Message.client = id t;
    timestamp = p.ts;
    read_only = p.as_read_only;
    full_replies = p.full_replies;
    replier = (if p.full_replies then -1 else p.replier);
    op = p.op;
  }

let transmit t p =
  let msg = Message.Request (request_of t p) in
  let multicast_it =
    p.full_replies
    || (p.as_read_only && t.config.Config.read_only_optimization)
    || (t.config.Config.separate_request_transmission
       && Payload.size p.op > Config.inline_threshold)
  in
  if multicast_it then Transport.multicast t.transport ~dsts:(all_peers t) msg
  else Transport.send t.transport ~dst:(home_peer t) msg

(* Jittered exponential backoff: [base * min(cap, 2^attempt)], then
   stretched by a seeded jitter factor in [1.0, 1.25) so that a burst of
   clients that lost (or were shed) together does not retransmit in
   lockstep. Deterministic given the client's RNG state. *)
let retry_backoff ~base ~cap ~rng ~attempt =
  base
  *. Float.min cap (Float.pow 2.0 (float_of_int attempt))
  *. (1.0 +. (0.25 *. Rng.float rng 1.0))

let rec arm_timer t p =
  let delay =
    retry_backoff ~base:t.config.Config.client_retry_timeout ~cap:16.0
      ~rng:t.rng ~attempt:p.retries
  in
  p.timer <-
    Timer.start (Transport.engine t.transport) ~delay (fun () ->
        match t.pending with Some p' when p' == p -> retransmit t p | _ -> ())

and retransmit t p =
  Timer.cancel p.timer;
  p.retries <- p.retries + 1;
  Metrics.incr t.metrics "ops.retransmitted";
  emit_trace t ~req_id:(trace_req t p) Trace.Client_retransmit;
  p.full_replies <- true;
  if p.as_read_only then begin
    (* Fall back to the regular read-write protocol (Section 3.1). *)
    p.as_read_only <- false;
    Hashtbl.reset p.replies;
    Hashtbl.reset p.tallies
  end;
  transmit t p;
  arm_timer t p

(* An authenticated BUSY from the current primary: the request was shed by
   admission control. Retry on a jittered exponential backoff (capped at
   64x, above the 16x retransmission cap, so shed traffic yields to
   admitted traffic) until the retry budget runs out, then report the
   operation as explicitly rejected. Rejection is advisory: a delayed
   duplicate of the request can still commit at the replicas — the
   per-client timestamp makes that harmless, and the callback's [rejected]
   flag tells the application the result was not observed. *)
let handle_busy t p =
  Metrics.incr t.metrics "ops.shed";
  Timer.cancel p.timer;
  if p.busy_retries >= t.config.Config.shed_retry_budget then begin
    t.pending <- None;
    Metrics.incr t.metrics "ops.rejected";
    let latency = Engine.now (Transport.engine t.transport) -. p.started in
    emit_trace t ~req_id:(trace_req t p) ~detail:"rejected" Trace.Client_deliver;
    p.callback
      {
        result = Payload.empty;
        latency;
        retries = p.retries;
        view = view_estimate t;
        rejected = true;
      }
  end
  else begin
    p.busy_retries <- p.busy_retries + 1;
    let delay =
      retry_backoff ~base:t.config.Config.client_retry_timeout ~cap:64.0
        ~rng:t.rng ~attempt:p.busy_retries
    in
    p.timer <-
      Timer.start (Transport.engine t.transport) ~delay (fun () ->
          match t.pending with
          | Some p' when p' == p ->
            Metrics.incr t.metrics "ops.shed_retry";
            transmit t p;
            arm_timer t p
          | _ -> ())
  end

let tally_for p digest =
  match Hashtbl.find_opt p.tallies digest with
  | Some tally -> tally
  | None ->
    let tally =
      { t_total = 0; t_committed = 0; t_full = None; t_full_committed = false }
    in
    Hashtbl.add p.tallies digest tally;
    tally

let tally_add p (rr : reply_record) =
  let tally = tally_for p rr.rr_digest in
  tally.t_total <- tally.t_total + 1;
  if not rr.rr_tentative then tally.t_committed <- tally.t_committed + 1;
  (match rr.rr_full with
  | Some payload
    when tally.t_full = None
         || ((not tally.t_full_committed) && not rr.rr_tentative) ->
    (* Keep a full body for the digest, preferring one vouched for by a
       committed reply over one only tentatively executed. *)
    tally.t_full <- Some payload;
    tally.t_full_committed <- not rr.rr_tentative
  | _ -> ());
  tally

let tally_remove p (rr : reply_record) =
  (* The superseded record's counts go away; any full body it contributed
     stays — a full result is bound to its digest regardless of which
     replica delivered it first. *)
  match Hashtbl.find_opt p.tallies rr.rr_digest with
  | None -> ()
  | Some tally ->
    tally.t_total <- tally.t_total - 1;
    if not rr.rr_tentative then tally.t_committed <- tally.t_committed - 1

(* The view reported with an accepted outcome. Only replies that vouched
   for the accepted digest count, and among those the (f+1)-th largest view
   is taken: any f+1 of them include at least one correct replica, so a
   Byzantine replica that joins the quorum with the right digest but an
   arbitrarily inflated view cannot push the outcome's view past what some
   correct replica actually reported. (A max-fold over *all* records let a
   single liar inflate it without bound.) The accepting quorum always holds
   at least f+1 matching records, so the index is in range. *)
let quorum_view t p ~digest =
  let views =
    Hashtbl.fold
      (fun _ rr acc ->
        if Fingerprint.equal rr.rr_digest digest then rr.rr_view :: acc
        else acc)
      p.replies []
  in
  let sorted = List.sort (fun a b -> compare b a) views in
  List.nth sorted (Stdlib.min t.config.Config.f (List.length sorted - 1))

(* Acceptance is checked only for the digest the arriving reply touched:
   counts for a digest change only when one of its own replies arrives (a
   superseding reply can lower another digest's counts, but acceptance
   thresholds are monotone so a decrement can never newly satisfy them).
   The winner is therefore the first digest whose quorum completes in
   arrival order — deterministic, rather than [Hashtbl.iter] order over a
   rebuilt table. *)
let check_acceptance t p ~digest (tally : tally) =
  let f = t.config.Config.f in
  let strong = (2 * f) + 1 and weak = f + 1 in
  let enough =
    if p.as_read_only && t.config.Config.read_only_optimization then
      tally.t_total >= strong
    else tally.t_committed >= weak || tally.t_total >= strong
  in
  if enough then
    match tally.t_full with
    | None ->
      (* A quorum agrees on the digest but the designated replier's full
         result has not arrived (yet). Per the paper, the client
         retransmits "as usual" — on its timer — so a slow-but-correct
         replier costs nothing and only a faulty one costs a timeout. *)
      ()
    | Some result ->
      Timer.cancel p.timer;
      t.pending <- None;
      let view = quorum_view t p ~digest in
      Metrics.incr t.metrics "ops.completed";
      let latency = Engine.now (Transport.engine t.transport) -. p.started in
      t.latency_probe latency;
      emit_trace t ~req_id:(trace_req t p)
        ~detail:(string_of_int p.retries)
        Trace.Client_deliver;
      p.callback { result; latency; retries = p.retries; view; rejected = false }

let handle_reply t p (r : Message.reply) =
  let replica = r.Message.replica in
  if replica >= 0 && replica < t.config.Config.n then begin
    t.last_views.(replica) <- Stdlib.max t.last_views.(replica) r.Message.view;
    let record =
      match r.Message.body with
      | Message.Full_result payload ->
        {
          rr_tentative = r.Message.tentative;
          rr_digest = Payload.digest payload;
          rr_full = Some payload;
          rr_view = r.Message.view;
        }
      | Message.Result_digest d ->
        {
          rr_tentative = r.Message.tentative;
          rr_digest = d;
          rr_full = None;
          rr_view = r.Message.view;
        }
    in
    (* A committed reply supersedes a tentative one from the same replica,
       and a full result supersedes a digest-only reply (a designated
       replier's retransmission must not be blocked by the digest we
       already hold); otherwise the first reply wins. *)
    match Hashtbl.find_opt p.replies replica with
    | Some old
      when (old.rr_tentative && not record.rr_tentative)
           || (old.rr_full = None && record.rr_full <> None) ->
      Hashtbl.replace p.replies replica record;
      tally_remove p old;
      check_acceptance t p ~digest:record.rr_digest (tally_add p record)
    | Some _ -> ()
    | None ->
      Hashtbl.add p.replies replica record;
      check_acceptance t p ~digest:record.rr_digest (tally_add p record)
  end

let create ~config ~transport ~replicas ~rng ~dispatcher () =
  let t =
    {
      config;
      transport;
      replicas;
      rng;
      next_ts = 0L;
      pending = None;
      last_views = Array.make config.Config.n 0;
      metrics = Metrics.create ();
      latency_probe = ignore;
    }
  in
  let sink ~wire ~prefix_len ~size env =
    match Transport.check transport ~wire ~prefix_len ~size env with
    | Transport.Accepted -> (
      match env.Message.msg with
      | Message.Reply r -> (
        match t.pending with
        | Some p when r.Message.timestamp = p.ts -> handle_reply t p r
        | _ -> Metrics.incr t.metrics "reply.stale")
      | Message.Busy b -> (
        match t.pending with
        | Some p
          when b.Message.bz_timestamp = p.ts
               && env.Message.sender = b.Message.bz_replica
               && b.Message.bz_replica = shedding_orderer t ->
          handle_busy t p
        | _ -> Metrics.incr t.metrics "busy.stale")
      | _ -> Metrics.incr t.metrics "unexpected")
    | Transport.Replayed -> Metrics.incr t.metrics "auth.replay_dropped"
    | Transport.Rejected -> Metrics.incr t.metrics "auth.failed"
  in
  Dispatcher.register_client dispatcher (id t) sink;
  t

let invoke t ?(read_only = false) op callback =
  if busy t then invalid_arg "Client.invoke: operation already outstanding";
  t.next_ts <- Int64.add t.next_ts 1L;
  let replier =
    if t.config.Config.digest_replies then
      (id t + Int64.to_int t.next_ts + Rng.int t.rng t.config.Config.n)
      mod t.config.Config.n
    else -1
  in
  let p =
    {
      ts = t.next_ts;
      op;
      as_read_only = read_only;
      full_replies = false;
      replier;
      callback;
      started = Engine.now (Transport.engine t.transport);
      retries = 0;
      busy_retries = 0;
      replies = Hashtbl.create 8;
      tallies = Hashtbl.create 4;
      timer = Timer.never;
    }
  in
  t.pending <- Some p;
  Metrics.incr t.metrics "ops.started";
  emit_trace t ~req_id:(trace_req t p)
    ~detail:(if read_only then "read-only" else "read-write")
    Trace.Client_send;
  transmit t p;
  arm_timer t p
