open Types
module Engine = Bft_sim.Engine
module Timer = Bft_sim.Timer
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration
module Network = Bft_net.Network
module Fingerprint = Bft_crypto.Fingerprint
module Keychain = Bft_crypto.Keychain
module Rng = Bft_util.Rng
module Enc = Bft_util.Codec.Enc
module Dec = Bft_util.Codec.Dec
module Trace = Bft_trace.Trace

type client_entry = {
  mutable last_ts : int64;  (** highest executed timestamp *)
  mutable cached_result : Payload.t option;  (** result for [last_ts] *)
  mutable cached_tentative : bool;
      (** the cached reply is for a tentative execution: duplicates must be
          answered tentatively too, or f+1 cached replies could convince a
          client of an execution that later rolls back *)
}

type status = Normal | View_changing

(* In-progress hierarchical state fetch: target page digests, pages
   gathered so far (reused locally or fetched), and who to ask. *)
type fetch_ctx = {
  fx_seq : seqno;
  fx_digest : Fingerprint.t;  (** target checkpoint (state) digest *)
  fx_pages : Fingerprint.t array;
  fx_have : (int, Payload.t) Hashtbl.t;
  fx_src : replica_id;
}

type t = {
  config : Config.t;
  transport : Transport.t;
  replicas : Transport.peer array;
  lookup_client : client_id -> Transport.peer option;
  service : Service.t;
  rng : Rng.t;
  mutable behavior : Behavior.t;
  (* Replay attack: ring of recently received authenticated datagrams *)
  replay_ring : (string * int) array;
  mutable replay_len : int;
  mutable replay_pos : int;
  metrics : Metrics.t;
  id : replica_id;
  mutable view : view;
  mutable status : status;
  mutable target_view : view;  (** view we are moving to (= view in Normal) *)
  mutable log : Log.t;
  (* execution *)
  mutable last_executed : seqno;  (** includes tentative executions *)
  mutable last_committed : seqno;  (** finally executed and committed *)
  mutable exec_audit : (seqno * Fingerprint.t) list;  (** newest first *)
  client_table : (client_id, client_entry) Hashtbl.t;
  mutable deferred_ro : (Message.request * Payload.t) list;  (** newest first *)
  (* primary batching *)
  pending : (Message.request * Fingerprint.t) Queue.t;
      (** admitted requests with their digests *)
  queued_ts : (client_id, int64) Hashtbl.t;  (** highest queued/assigned ts *)
  mutable last_pp_seq : seqno;
  (* request and batch bodies *)
  request_store : (Fingerprint.t, Message.request) Hashtbl.t;
  batch_store :
    (Fingerprint.t, seqno * Message.batch_entry list * Fingerprint.t list) Hashtbl.t;
      (** batch digest -> seq, entries and their entry digests *)
  (* checkpoints *)
  mutable last_stable : seqno;
  mutable stable_digest : Fingerprint.t;
  mutable stable_snapshot : Payload.t Lazy.t;
      (** captured, forced only to serve state transfer or a restart *)
  own_checkpoints : (seqno, Fingerprint.t) Hashtbl.t;
  checkpoint_snapshots : (seqno, Payload.t Lazy.t) Hashtbl.t;
  checkpoint_msgs : (seqno, (replica_id, Fingerprint.t) Hashtbl.t) Hashtbl.t;
  stable_certs : (seqno, Fingerprint.t) Hashtbl.t;
  (* liveness *)
  waiting : (Fingerprint.t, float) Hashtbl.t;
      (** requests received directly from clients, not yet executed *)
  mutable vc_timer : Timer.t;
  mutable vc_attempts : int;
  view_changes : (view, (replica_id, Message.view_change) Hashtbl.t) Hashtbl.t;
  mutable nv_sent : view;  (** highest view we already sent NEW-VIEW for *)
  mutable last_nv : Message.new_view option;  (** for straggler catch-up *)
  mutable resend_timer : Timer.t;
  mutable resend_fast : bool;  (** the armed tick uses the fast period *)
  mutable resend_stalls : int;  (** consecutive ticks without progress *)
  mutable resend_progress_mark : seqno;  (** last_committed at last tick *)
  mutable max_pp_seen : seqno;  (** highest slot with a pre-prepare *)
  mutable vc_started_at : float;
  vc_evidence : (replica_id, unit) Hashtbl.t;
      (** senders of current-view normal-case traffic observed while we are
          view-changing: proof the rest of the cluster is not following *)
  (* piggybacked commits *)
  mutable commit_backlog : Message.commit list;  (** newest first *)
  mutable flush_timer : Timer.t;
  (* state transfer / recovery *)
  mutable await_state : seqno option;
  mutable recovering : bool;
  state_votes : (seqno * Fingerprint.t * Fingerprint.t, int * Payload.t) Hashtbl.t;
  meta_votes : (seqno * Fingerprint.t * Fingerprint.t, int) Hashtbl.t;
  mutable fetch_ctx : fetch_ctx option;
  mutable state_timer : Timer.t;
  mutable state_attempts : int;  (** consecutive state refetches without progress *)
}

let id t = t.id

let view t = t.view

let primary_id t = primary_of_view ~n:t.config.Config.n t.view

let is_primary t = primary_id t = t.id

(* --- ordering mode: who proposes which sequence numbers ----------------

   [Single_primary] is the paper's protocol: the view primary orders every
   slot. Under [Rotating { epoch_length }] sequence numbers are partitioned
   into epochs of [epoch_length] slots and epoch [e] is ordered by replica
   [(view + e) mod n] — distinct replicas order disjoint seqno ranges
   concurrently, and a view change rotates every epoch owner at once
   (subsuming a failed owner). Execution stays in global seqno order. *)

let rotating t =
  match t.config.Config.ordering with
  | Config.Single_primary -> false
  | Config.Rotating _ -> true

let seq_owner t s =
  match t.config.Config.ordering with
  | Config.Single_primary -> primary_id t
  | Config.Rotating { epoch_length } ->
    (t.view + ((s - 1) / epoch_length)) mod t.config.Config.n

let owns_seq t s = seq_owner t s = t.id

(* First sequence number of the epoch containing [s]. *)
let epoch_first_seq t s =
  match t.config.Config.ordering with
  | Config.Single_primary -> s
  | Config.Rotating { epoch_length } ->
    (((s - 1) / epoch_length) * epoch_length) + 1

(* Smallest sequence number > [from] this replica may propose at. *)
let next_owned_seq t from =
  match t.config.Config.ordering with
  | Config.Single_primary -> from + 1
  | Config.Rotating { epoch_length } ->
    let n = t.config.Config.n in
    let s = from + 1 in
    let e = (s - 1) / epoch_length in
    let delta = (((t.id - t.view - e) mod n) + n) mod n in
    if delta = 0 then s else (((e + delta) * epoch_length) + 1)

(* [seq] opens an epoch of ours: proposing it hands the epoch off. *)
let opens_own_epoch t seq = rotating t && owns_seq t seq && seq = epoch_first_seq t seq

(* The handoff proposal at an epoch-first [seq]: [opp_close] is our
   committed prefix. *)
let ordered_pre_prepare t seq entries =
  Message.Ordered_pre_prepare
    {
      opp_view = t.view;
      opp_seq = seq;
      opp_close = t.last_committed;
      opp_entries = entries;
    }

(* In rotating mode every replica is an orderer (of its own slots). *)
let is_orderer t = rotating t || is_primary t

(* The ordering replica a client's fresh requests are routed to. The map
   shifts with the view so a view change re-homes the clients of a failed
   orderer; clients compute the same function over their view estimate. *)
let home_orderer t client =
  match t.config.Config.ordering with
  | Config.Single_primary -> primary_id t
  | Config.Rotating _ -> (client + t.view) mod t.config.Config.n

let orders_for t client = home_orderer t client = t.id

(* Health-monitor gauge: who must propose the next uncommitted slot. *)
let ordering_owner t = seq_owner t (t.last_committed + 1)

let last_executed t = t.last_executed

let last_committed t = t.last_committed

let last_stable t = t.last_stable

let metrics t = t.metrics

(* Health-monitor gauges: cheap reads over live protocol state. *)

let queue_depth t = Queue.length t.pending

let sheds t = Metrics.count t.metrics "admission.shed"

let backlog t = Hashtbl.length t.waiting

let log_depth t =
  let n = ref 0 in
  Log.iter t.log (fun _ -> incr n);
  !n

let stable_digest t = t.stable_digest

let behavior t = t.behavior

let service t = t.service

let executed_digests t = List.rev t.exec_audit

let engine t = Transport.engine t.transport

let cal t = Transport.calibration t.transport

let charge ?cat t cost = Cpu.charge ?cat (Transport.cpu t.transport) cost

let f_of t = t.config.Config.f

let peers_except_self t =
  Array.to_list t.replicas
  |> List.filter (fun (p : Transport.peer) -> p.principal <> t.id)

let muted t = match t.behavior with Behavior.Mute -> true | _ -> false

(* --- protocol tracing ------------------------------------------------- *)

(* Events are stamped with the CPU's virtual time, not the engine clock:
   within one message handler the engine clock stands still while CPU
   charges accrue, and the per-phase breakdown needs to see crypto and
   execution costs inside the handler. *)
let emit_trace t ?seqno ?view ?req_id ?detail kind =
  let trc = Network.trace (Transport.network t.transport) in
  if Trace.enabled trc then
    Trace.emit trc
      ~vtime:(Cpu.virtual_now (Transport.cpu t.transport))
      ~node:t.id ?seqno ?view ?req_id ?detail kind

let trace_req (r : Message.request) =
  Trace.req_id ~client:r.Message.client ~ts:r.Message.timestamp

(* --- piggybacked commits -------------------------------------------- *)

let take_backlog t =
  let commits = List.rev t.commit_backlog in
  t.commit_backlog <- [];
  Timer.cancel t.flush_timer;
  commits

let out_multicast t ?(dsts = peers_except_self t) msg =
  if not (muted t) then begin
    let commits =
      if t.config.Config.piggyback_commits then take_backlog t else []
    in
    if commits <> [] then
      Metrics.incr ~by:(List.length commits) t.metrics "piggy.attached";
    Transport.multicast t.transport ~commits ~dsts msg
  end

let out_send t ~dst msg = if not (muted t) then Transport.send t.transport ~dst msg

let client_entry t client =
  match Hashtbl.find_opt t.client_table client with
  | Some ce -> ce
  | None ->
    let ce = { last_ts = -1L; cached_result = None; cached_tentative = false } in
    Hashtbl.replace t.client_table client ce;
    ce

(* --- state digests and snapshots ------------------------------------- *)

(* Only executed entries are part of the replicated state: the primary also
   holds placeholder entries (last_ts = -1) for clients whose requests are
   still queued, and those must not perturb the checkpoint digest. *)
let client_table_encoding t =
  let entries =
    Hashtbl.fold
      (fun client ce acc ->
        if ce.last_ts >= 0L then (client, ce) :: acc else acc)
      t.client_table []
    |> List.sort compare
  in
  let enc = Enc.create () in
  List.iter
    (fun (client, ce) ->
      Enc.u32 enc client;
      Enc.u64 enc ce.last_ts;
      Enc.option enc Payload.encode ce.cached_result)
    entries;
  Enc.to_string enc

let state_digest t =
  let table = client_table_encoding t in
  charge ~cat:Cpu.Digest t
    (Calibration.digest_cost (cal t)
       (t.service.Service.modified_since_checkpoint () + String.length table));
  Fingerprint.of_parts [ t.service.Service.state_digest (); table ]

(* A checkpoint snapshot is captured now and encoded when forced. The
   encoding is charged now, on its exact length (two length-prefixed
   strings), whether or not anything ever forces it. *)
let snapshot_payload t =
  let svc = t.service.Service.capture () in
  let table = client_table_encoding t in
  let length = 4 + String.length table + 4 + svc.Service.length in
  charge ~cat:Cpu.Encode t (float_of_int length *. (cal t).Calibration.byte_touch_cost);
  lazy
    (let enc = Enc.create ~initial:length () in
     Enc.bytes enc table;
     Enc.bytes enc (Lazy.force svc.Service.payload).Payload.data;
     { Payload.data = Enc.to_string enc; pad = svc.Service.pad })

let restore_snapshot t (p : Payload.t) =
  let dec = Dec.of_string p.Payload.data in
  let table = Dec.bytes dec in
  let svc_data = Dec.bytes dec in
  Hashtbl.reset t.client_table;
  let tdec = Dec.of_string table in
  while not (Dec.at_end tdec) do
    let client = Dec.u32 tdec in
    let last_ts = Dec.u64 tdec in
    let cached_result = Dec.option tdec Payload.decode in
    (* snapshots only contain finalized executions *)
    Hashtbl.replace t.client_table client
      { last_ts; cached_result; cached_tentative = false }
  done;
  t.service.Service.restore { Payload.data = svc_data; pad = p.Payload.pad };
  charge ~cat:Cpu.Decode t
    (float_of_int (Payload.size p) *. (cal t).Calibration.byte_touch_cost)

(* --- liveness timer --------------------------------------------------- *)

(* Shared liveness backoff: the delay doubles per consecutive attempt,
   capped at 64x the base period. Used by the view-change timer and the
   state-transfer refetch timer so a stalled peer set cannot induce a
   constant-rate retry storm. *)
let liveness_backoff ~base ~attempts =
  base *. Float.min 64.0 (Float.pow 2.0 (float_of_int attempts))

let vc_timeout t =
  liveness_backoff ~base:t.config.Config.view_change_timeout
    ~attempts:t.vc_attempts

(* How many replicas' VIEW-CHANGE messages for our target view we hold. *)
let vc_backing t =
  match Hashtbl.find_opt t.view_changes t.target_view with
  | Some table -> Hashtbl.length table
  | None -> 0

(* Garbage collection below a stable checkpoint: collect the doomed keys,
   then delete in place — no [Hashtbl.copy] of the whole table per
   checkpoint. All these tables use [Hashtbl.replace], so each key has at
   most one binding. *)
let drop_matching table keep =
  let doomed =
    Hashtbl.fold (fun k _ acc -> if keep k then acc else k :: acc) table []
  in
  List.iter (Hashtbl.remove table) doomed

(* How long stable-checkpoint certificates outlive the log window, in
   multiples of [log_window] below the latest stable sequence number. They
   are kept after the log itself is truncated because a straggler fetching
   state can still present (and ask us to confirm) a checkpoint that far
   back; past that distance it must state-transfer to a newer checkpoint
   anyway, so the certificate is dead weight. Each entry is only a
   (seqno, digest) pair — retention is cheap. *)
let stable_cert_retention_windows = 4

(* The forward-declaration knot: the handler web is mutually recursive. *)

(* Drop waiting entries that were satisfied without this replica executing
   them itself — e.g. a state transfer jumped over their slot — or whose
   request body is gone (executed and garbage-collected). *)
let rec prune_waiting t =
  drop_matching t.waiting (fun digest ->
      match Hashtbl.find_opt t.request_store digest with
      | Some (r : Message.request) ->
        let ce = client_entry t r.Message.client in
        (* Satisfied only once executed *finally*: a tentative execution can
           still be stuck on its commit and must keep the timer alive. *)
        not
          (r.Message.timestamp < ce.last_ts
          || (r.Message.timestamp = ce.last_ts && not ce.cached_tentative))
      | None -> false)

and arm_waiting_timer t =
  if
    t.status = Normal
    && Hashtbl.length t.waiting > 0
    && not (Timer.active t.vc_timer)
  then
    t.vc_timer <-
      Timer.start (engine t) ~delay:(vc_timeout t) (fun () ->
          prune_waiting t;
          if t.status = Normal && Hashtbl.length t.waiting > 0 then begin
            Metrics.incr t.metrics "viewchange.timeout";
            start_view_change t (t.view + 1)
          end
          else arm_waiting_timer t)

(* --- message retransmission (PBFT's status mechanism, simplified) -----

   Datagrams are unreliable, and a lost PREPARE or CHECKPOINT must not stall
   the pipeline until a view change. While useful work is pending, a timer
   re-multicasts the messages that drive the head-of-line sequence number
   and any checkpoint votes that have not become stable. *)
and resend_pending t =
  (* O(1): called on every message by [ensure_resend_timer]. *)
  t.status = View_changing
  || Hashtbl.length t.waiting > 0
  || Hashtbl.length t.own_checkpoints > 0
  || t.max_pp_seen > t.last_committed

and ensure_resend_timer t =
  (* The tick runs forever: fast while useful work is pending, slow (status
     heartbeat only) when idle, so even a quiescent cluster discovers and
     heals a straggler. A slow tick already armed is accelerated when work
     appears. *)
  let pending = resend_pending t in
  if (not (Timer.active t.resend_timer)) || (pending && not t.resend_fast)
  then begin
    Timer.cancel t.resend_timer;
    t.resend_fast <- pending;
    (* Back off when retransmission makes no progress (e.g. too many peers
       are actually down), so a wedged cluster does not chatter forever. *)
    let backoff =
      if pending then Float.min 8.0 (1.0 +. (float_of_int t.resend_stalls /. 3.0))
      else 6.0
    in
    let delay = t.config.Config.client_retry_timeout *. backoff in
    t.resend_timer <-
      Timer.start (engine t) ~delay (fun () ->
          if resend_pending t then do_resends t else multicast_status t;
          ensure_resend_timer t)
  end

and multicast_status t =
  out_multicast t
    (Message.Status
       {
         st_view = t.view;
         st_stable = t.last_stable;
         st_committed = t.last_committed;
         st_vc = (t.status = View_changing);
         st_replica = t.id;
       })

and do_resends t =
  Metrics.incr t.metrics "resend.tick";
  if t.last_committed > t.resend_progress_mark then begin
    t.resend_progress_mark <- t.last_committed;
    t.resend_stalls <- 0
  end
  else t.resend_stalls <- t.resend_stalls + 1;
  maybe_abandon_view_change t;
  multicast_status t;
  (match t.status with
  | View_changing -> (
    (* re-multicast our VIEW-CHANGE for the view we are moving to *)
    match Hashtbl.find_opt t.view_changes t.target_view with
    | Some table -> (
      match Hashtbl.find_opt table t.id with
      | Some vc -> out_multicast t (Message.View_change vc)
      | None -> ())
    | None -> ())
  | Normal ->
    (* drive the head-of-line slot *)
    let next = t.last_committed + 1 in
    (match Log.find t.log next with
    | Some ({ Log.pre_prepare = Some (v, entries); _ } as slot) when v = t.view ->
      if slot.Log.proposer = t.id then multicast_proposal t next entries
      else if slot.Log.own_prepare_sent then (
        match slot.Log.pp_digest with
        | Some digest ->
          out_multicast t
            (Message.Prepare { view = t.view; seq = next; digest; replica = t.id })
        | None -> ());
      if slot.Log.own_commit_sent then (
        match slot.Log.pp_digest with
        | Some digest ->
          out_multicast t
            (Message.Commit { view = t.view; seq = next; digest; replica = t.id })
        | None -> ())
    | _ ->
      (* we never saw the pre-prepare: ask its proposer for it if later
         slots prove the sequence number was used *)
      let later = ref false in
      Log.iter t.log (fun slot ->
          if slot.Log.seq > next && slot.Log.pre_prepare <> None then later := true);
      if !later && seq_owner t next <> t.id then fetch_batch t next);
    (* Rotating mode: if any epoch-first proposal of ours is still
       uncommitted, re-multicast the lowest one in Ordered form. The
       head-of-line resend above only covers last_committed + 1; a lost
       ORDERED-PRE-PREPARE deeper in the pipeline would otherwise leave
       receivers without the opp_close handoff — they could not close
       their abandoned slots until the slower primary reclaim fired. *)
    if rotating t then begin
      let best = ref None in
      Log.iter t.log (fun slot ->
          if
            slot.Log.seq > t.last_committed + 1
            && (not slot.Log.committed)
            && slot.Log.proposer = t.id
            && opens_own_epoch t slot.Log.seq
          then
            match (slot.Log.pre_prepare, !best) with
            | Some (v, entries), None when v = t.view ->
              best := Some (slot.Log.seq, entries)
            | Some (v, entries), Some (s, _) when v = t.view && slot.Log.seq < s ->
              best := Some (slot.Log.seq, entries)
            | _ -> ());
      match !best with
      | Some (seq, entries) -> out_multicast t (ordered_pre_prepare t seq entries)
      | None -> ()
    end;
    (* Rotating mode: a crashed or partitioned epoch owner stalls global
       execution at its slots. After a full retransmission tick with no
       commit progress, the view primary reclaims the stalled range
       Mencius-style: every unproposed in-window slot up to the proposal
       frontier is filled with the null request (receivers accept only
       null batches from the primary for slots it does not own). A failed
       recurring owner thus costs one retransmission delay, not a view
       change per epoch it owns. *)
    if rotating t && is_primary t && t.resend_stalls >= 1 then begin
      let upto = Stdlib.min t.max_pp_seen (Log.high_watermark t.log) in
      for s = t.last_committed + 1 to upto do
        if Log.in_window t.log s then
          match Log.find t.log s with
          | Some { Log.pp_digest = Some _; _ } -> ()
          | _ ->
            Metrics.incr t.metrics "rotate.reclaim";
            send_pre_prepare t s [ Message.Null_entry ] [ Fingerprint.zero ]
      done
    end;
    (* re-multicast unstable checkpoint votes *)
    Hashtbl.iter
      (fun seq digest ->
        if seq > t.last_stable then
          out_multicast t (Message.Checkpoint { seq; digest; replica = t.id }))
      t.own_checkpoints)

(* Multicast a proposal of ours. The epoch-first PRE-PREPARE is the
   rotating-mode handoff: it goes out as ORDERED-PRE-PREPARE carrying our
   *current* committed prefix, so receivers can close out their own
   abandoned slots below this epoch — also on a resend, so a receiver
   that missed the original still gets the handoff, not just the
   proposal. *)
and multicast_proposal t seq entries =
  out_multicast t
    (if opens_own_epoch t seq then ordered_pre_prepare t seq entries
     else Message.Pre_prepare { view = t.view; seq; entries })

(* Execution progressed: the primary is live. Stop the timer, and restart
   it afresh if other requests are still waiting (PBFT restarts rather than
   keeps the old deadline, otherwise a loaded-but-live primary would be
   ousted every timeout period). *)
and maybe_cancel_waiting_timer t =
  if t.status = Normal then begin
    Timer.cancel t.vc_timer;
    arm_waiting_timer t
  end

(* --- replies ----------------------------------------------------------- *)

and send_reply t (r : Message.request) result ~tentative =
  match t.lookup_client r.Message.client with
  | None -> Metrics.incr t.metrics "reply.unknown_client"
  | Some dst ->
    let result =
      match t.behavior with
      | Behavior.Corrupt_replies ->
        { Payload.data = result.Payload.data ^ "\xde\xad"; pad = result.Payload.pad }
      | _ -> result
    in
    let full =
      r.Message.full_replies || r.Message.replier = t.id || r.Message.replier < 0
      || not t.config.Config.digest_replies
    in
    (* Non-designated replicas digest the result to build the digest reply;
       the designated replier's digest is charged by the transport when it
       hashes the full reply message. *)
    if not full then
      charge ~cat:Cpu.Digest t
        (Calibration.digest_cost (cal t) (Payload.size result));
    let body =
      if full then Message.Full_result result
      else Message.Result_digest (Payload.digest result)
    in
    let reported_view =
      match t.behavior with
      | Behavior.Inflate_view k -> t.view + k
      | _ -> t.view
    in
    let reply =
      {
        Message.view = reported_view;
        timestamp = r.Message.timestamp;
        client = r.Message.client;
        replica = t.id;
        tentative;
        epoch = Keychain.epoch (Transport.keychain t.transport) ~peer:0;
        body;
      }
    in
    if not (muted t) then
      emit_trace t ~view:t.view ~req_id:(trace_req r)
        ~detail:(if tentative then "tentative" else "final")
        Trace.Reply_sent;
    out_send t ~dst (Message.Reply reply)

(* Admission control (overload protection): tell the client explicitly
   that its request was shed instead of silently queueing it. The envelope
   MAC vector authenticates the BUSY like any other protocol message. *)
and send_busy t (r : Message.request) =
  Metrics.incr t.metrics "admission.shed";
  match t.lookup_client r.Message.client with
  | None -> Metrics.incr t.metrics "reply.unknown_client"
  | Some dst ->
    let busy =
      {
        Message.bz_view = t.view;
        bz_timestamp = r.Message.timestamp;
        bz_client = r.Message.client;
        bz_replica = t.id;
        bz_queue = Queue.length t.pending;
      }
    in
    if not (muted t) then
      emit_trace t ~view:t.view ~req_id:(trace_req r) ~detail:"busy"
        Trace.Reply_sent;
    out_send t ~dst (Message.Busy busy)

(* Bounded admission queue: admit [r] to the primary's pending queue,
   shedding per the configured policy when full. [record_ts] marks the
   fresh-request path, where admission also bumps the client's queued
   timestamp (the full-replies re-propose path must not touch it). *)
and admit_request t (r : Message.request) digest ~record_ts =
  let limit = t.config.Config.admission_queue_limit in
  if limit > 0 && Queue.length t.pending >= limit then begin
    match t.config.Config.shed_policy with
    | Config.Reject_new -> send_busy t r
    | Config.Drop_oldest ->
      let victim, _ = Queue.pop t.pending in
      (* Roll the victim's queued timestamp back so its retransmission
         passes the freshness check and re-enters admission. *)
      Hashtbl.replace t.queued_ts victim.Message.client
        (Int64.sub victim.Message.timestamp 1L);
      send_busy t victim;
      if record_ts then
        Hashtbl.replace t.queued_ts r.Message.client r.Message.timestamp;
      Queue.add (r, digest) t.pending;
      try_send_batch t
  end
  else begin
    if record_ts then
      Hashtbl.replace t.queued_ts r.Message.client r.Message.timestamp;
    Queue.add (r, digest) t.pending;
    try_send_batch t
  end

and resend_cached_reply t (r : Message.request) =
  let ce = client_entry t r.Message.client in
  if ce.last_ts = r.Message.timestamp then begin
    match ce.cached_result with
    | Some result ->
      Metrics.incr t.metrics
        (if ce.cached_tentative then "reply.cached_tentative"
         else "reply.cached_final");
      send_reply t r result ~tentative:ce.cached_tentative
    | None -> Metrics.incr t.metrics "reply.cache_empty"
  end
  else Metrics.incr t.metrics "reply.cache_stale"

(* --- execution --------------------------------------------------------- *)

(* The requests a slot's entries stand for, with their digests; summaries
   whose body is gone are skipped. *)
and resolve_entries t (slot : Log.slot) =
  match slot.Log.pre_prepare with
  | None -> []
  | Some (_, entries) ->
    List.fold_right2
      (fun entry d acc ->
        match entry with
        | Message.Full r -> (r, d) :: acc
        | Message.Summary _ -> (
          match Hashtbl.find_opt t.request_store d with
          | Some r -> (r, d) :: acc
          | None -> acc)
        | Message.Null_entry -> acc)
      entries slot.Log.entry_digests []

and execute_request t (r : Message.request) ~tentative undos =
  let ce = client_entry t r.Message.client in
  if r.Message.timestamp <= ce.last_ts then begin
    (* Duplicate (re-proposed across a view change, or a client retry that
       raced execution): don't re-execute, but refresh the client. *)
    Metrics.incr t.metrics "exec.duplicate";
    resend_cached_reply t r
  end
  else begin
    charge ~cat:Cpu.Exec t (t.service.Service.execute_cost r.Message.op);
    let result, undo = t.service.Service.execute ~client:r.Message.client ~op:r.Message.op in
    charge ~cat:Cpu.Exec t
      (float_of_int (Payload.size result) *. (cal t).Calibration.byte_touch_cost);
    emit_trace t ~view:t.view ~req_id:(trace_req r)
      ~detail:(if tentative then "tentative" else "final")
      Trace.Exec_request;
    let prev_ts = ce.last_ts
    and prev_result = ce.cached_result
    and prev_tent = ce.cached_tentative in
    ce.last_ts <- r.Message.timestamp;
    ce.cached_result <- Some result;
    ce.cached_tentative <- tentative;
    if tentative then
      undos :=
        (fun () ->
          undo ();
          ce.last_ts <- prev_ts;
          ce.cached_result <- prev_result;
          ce.cached_tentative <- prev_tent)
        :: !undos;
    send_reply t r result ~tentative
  end

and execute_slot t (slot : Log.slot) ~tentative =
  let undos = ref [] in
  List.iter
    (fun (r, digest) ->
      Hashtbl.remove t.waiting digest;
      execute_request t r ~tentative undos)
    (resolve_entries t slot);
  slot.Log.undos <- !undos;
  slot.Log.executed <- true;
  t.last_executed <- slot.Log.seq;
  Metrics.incr t.metrics (if tentative then "exec.tentative" else "exec.final");
  emit_trace t ~seqno:slot.Log.seq ~view:t.view
    (if tentative then Trace.Exec_tentative else Trace.Exec_final);
  maybe_cancel_waiting_timer t

and finalize_slot t (slot : Log.slot) =
  slot.Log.finalized <- true;
  slot.Log.undos <- [];
  t.last_committed <- slot.Log.seq;
  t.vc_attempts <- 0;
  t.resend_stalls <- 0;
  (* cached replies for this batch are now backed by a commit certificate *)
  List.iter
    (fun ((r : Message.request), _) ->
      let ce = client_entry t r.Message.client in
      if ce.last_ts = r.Message.timestamp then ce.cached_tentative <- false)
    (resolve_entries t slot);
  (match slot.Log.pp_digest with
  | Some d -> t.exec_audit <- (slot.Log.seq, d) :: t.exec_audit
  | None -> ());
  (* Clean up executed request bodies, inline ones included. *)
  (match slot.Log.pre_prepare with
  | Some (_, entries) ->
    List.iter2
      (fun entry d ->
        match entry with
        | Message.Summary _ | Message.Full _ -> Hashtbl.remove t.request_store d
        | Message.Null_entry -> ())
      entries slot.Log.entry_digests
  | None -> ());
  flush_deferred_ro t;
  if slot.Log.seq mod t.config.Config.checkpoint_interval = 0 then
    take_checkpoint t slot.Log.seq

and flush_deferred_ro t =
  if t.last_executed = t.last_committed && t.deferred_ro <> [] then begin
    let ros = List.rev t.deferred_ro in
    t.deferred_ro <- [];
    List.iter (fun (r, result) -> send_reply t r result ~tentative:false) ros
  end

and advance t =
  if t.await_state = None && t.status = Normal then begin
    let progress = ref true in
    while !progress do
      progress := false;
      let next = t.last_committed + 1 in
      (match Log.find t.log next with
      | Some slot when slot.Log.committed && slot.Log.pre_prepare <> None
                       && slot.Log.missing_bodies = [] ->
        if slot.Log.executed then begin
          (* Tentative execution is being confirmed. *)
          finalize_slot t slot;
          progress := true
        end
        else if t.last_executed = next - 1 then begin
          execute_slot t slot ~tentative:false;
          finalize_slot t slot;
          progress := true
        end
      | _ -> ());
      (* Tentative execution: at most one uncommitted batch deep. *)
      if (not !progress) && t.config.Config.tentative_execution then begin
        let next = t.last_executed + 1 in
        if next = t.last_committed + 1 then
          match Log.find t.log next with
          | Some slot
            when (not slot.Log.executed) && Log.is_prepared slot ~f:(f_of t) t.view ->
            execute_slot t slot ~tentative:true;
            progress := true
          | _ -> ()
      end
    done;
    if is_orderer t then try_send_batch t
  end

(* --- checkpoints ------------------------------------------------------- *)

and take_checkpoint t seq =
  let digest = state_digest t in
  t.service.Service.checkpoint_taken ();
  Hashtbl.replace t.own_checkpoints seq digest;
  Hashtbl.replace t.checkpoint_snapshots seq (snapshot_payload t);
  Metrics.incr t.metrics "checkpoint.taken";
  ensure_resend_timer t;
  record_checkpoint_vote t ~seq ~digest ~from:t.id;
  out_multicast t (Message.Checkpoint { seq; digest; replica = t.id });
  try_stabilize t seq

and record_checkpoint_vote t ~seq ~digest ~from =
  let votes =
    match Hashtbl.find_opt t.checkpoint_msgs seq with
    | Some v -> v
    | None ->
      let v = Hashtbl.create 8 in
      Hashtbl.replace t.checkpoint_msgs seq v;
      v
  in
  if not (Hashtbl.mem votes from) then Hashtbl.replace votes from digest

and try_stabilize t seq =
  match Hashtbl.find_opt t.checkpoint_msgs seq with
  | None -> ()
  | Some votes ->
    let counts = Hashtbl.create 4 in
    Hashtbl.iter
      (fun _ d ->
        Hashtbl.replace counts d
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts d)))
      votes;
    Hashtbl.iter
      (fun digest count ->
        if count >= quorum ~f:(f_of t) then begin
          Hashtbl.replace t.stable_certs seq digest;
          if seq > t.last_stable then begin
            match Hashtbl.find_opt t.own_checkpoints seq with
            | Some own when Fingerprint.equal own digest ->
              make_stable t seq digest
            | Some _ ->
              (* Our state diverged from the quorum: refetch it. *)
              Metrics.incr t.metrics "checkpoint.divergent";
              request_state t ~target:seq
            | None ->
              (* We have not produced this checkpoint yet. If we are a full
                 interval behind, catch up by state transfer. *)
              if seq >= t.last_executed + t.config.Config.checkpoint_interval
              then request_state t ~target:seq
          end
        end)
      counts

and make_stable t seq digest =
  t.last_stable <- seq;
  t.stable_digest <- digest;
  (match Hashtbl.find_opt t.checkpoint_snapshots seq with
  | Some snap -> t.stable_snapshot <- snap
  | None -> ());
  Log.truncate t.log ~new_low:seq;
  let drop_below table = drop_matching table (fun s -> s > seq) in
  emit_trace t ~seqno:seq ~view:t.view Trace.Checkpoint_stable;
  drop_below t.own_checkpoints;
  drop_below t.checkpoint_msgs;
  drop_below t.checkpoint_snapshots;
  (let doomed =
     Hashtbl.fold
       (fun d (s, _, _) acc -> if s <= seq then d :: acc else acc)
       t.batch_store []
   in
   List.iter (Hashtbl.remove t.batch_store) doomed);
  drop_matching t.stable_certs (fun s ->
      s > seq - (stable_cert_retention_windows * t.config.Config.log_window));
  Metrics.incr t.metrics "checkpoint.stable";
  if is_orderer t then try_send_batch t

(* --- state transfer ---------------------------------------------------- *)

and request_state t ~target =
  if t.await_state = None || Option.get t.await_state < target then begin
    t.await_state <- Some target;
    Metrics.incr t.metrics "state.requested";
    out_multicast t (Message.Get_state { from_seq = t.last_stable; replica = t.id });
    let delay =
      liveness_backoff
        ~base:(2.0 *. t.config.Config.client_retry_timeout)
        ~attempts:t.state_attempts
    in
    t.state_timer <-
      Timer.restart (engine t) t.state_timer ~delay (fun () ->
          match t.await_state with
          | Some target ->
            t.state_attempts <- t.state_attempts + 1;
            Metrics.incr t.metrics "state.refetch";
            t.await_state <- None;
            drop_page_fetch t;
            request_state t ~target
          | None -> ())
  end

and on_get_state t (g : Message.get_state) =
  if
    t.last_stable >= g.Message.from_seq
    && g.Message.replica >= 0
    && g.Message.replica < t.config.Config.n
    && g.Message.replica <> t.id
  then begin
    let snapshot = Lazy.force t.stable_snapshot in
    if Payload.size snapshot <= 4 * Merkle.page_size then
      out_send t
        ~dst:t.replicas.(g.Message.replica)
        (Message.State
           {
             seq = t.last_stable;
             state_digest = t.stable_digest;
             snapshot;
             reply_view = t.view;
           })
    else begin
      (* Hierarchical transfer: ship the page digests; the fetcher asks for
         the pages it lacks. *)
      let digests = Merkle.page_digests (Merkle.paginate snapshot) in
      charge ~cat:Cpu.Digest t
        (Calibration.digest_cost (cal t) (Payload.size snapshot) /. 4.0);
      out_send t
        ~dst:t.replicas.(g.Message.replica)
        (Message.State_meta
           {
             sm_seq = t.last_stable;
             sm_state_digest = t.stable_digest;
             sm_page_digests = Array.to_list digests;
             sm_view = t.view;
           })
    end
  end

and on_state t (s : Message.state_resp) =
  (* Accept snapshots at or past the awaited checkpoint. The awaited seq can
     be at or below last_executed when we are repairing divergent state
     rather than catching up, in which case adopting rolls us back onto the
     quorum's checkpoint. *)
  if state_interest t s.Message.seq then begin
    let key = (s.Message.seq, s.Message.state_digest, Payload.digest s.Message.snapshot) in
    let count, _ =
      match Hashtbl.find_opt t.state_votes key with
      | Some (c, p) -> (c + 1, p)
      | None -> (1, s.Message.snapshot)
    in
    Hashtbl.replace t.state_votes key (count, s.Message.snapshot);
    let certified =
      match Hashtbl.find_opt t.stable_certs s.Message.seq with
      | Some d -> Fingerprint.equal d s.Message.state_digest
      | None -> false
    in
    if certified || count >= weak_quorum ~f:(f_of t) then
      adopt_state t s.Message.seq s.Message.state_digest s.Message.snapshot
  end

and state_interest t seq =
  (match t.await_state with Some tgt -> seq >= tgt | None -> false)
  || (t.recovering && seq >= t.last_stable)

and on_state_meta t sender (m : Message.state_meta) =
  if state_interest t m.Message.sm_seq && t.fetch_ctx = None then begin
    let pages = Array.of_list m.Message.sm_page_digests in
    let key = (m.Message.sm_seq, m.Message.sm_state_digest, Merkle.root pages) in
    let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.meta_votes key) in
    Hashtbl.replace t.meta_votes key count;
    let certified =
      match Hashtbl.find_opt t.stable_certs m.Message.sm_seq with
      | Some d -> Fingerprint.equal d m.Message.sm_state_digest
      | None -> false
    in
    if certified || count >= weak_quorum ~f:(f_of t) then
      begin_page_fetch t sender m.Message.sm_seq m.Message.sm_state_digest pages
  end

and begin_page_fetch t src seq digest target_pages =
  (* Reuse whatever pages of our current state already match. *)
  let own = Merkle.paginate (Lazy.force (snapshot_payload t)) in
  let own_digests = Merkle.page_digests own in
  charge ~cat:Cpu.Digest t
    (Calibration.digest_cost (cal t)
       (Array.length target_pages * Fingerprint.size));
  let have = Hashtbl.create 64 in
  Array.iteri
    (fun i d ->
      if i < Array.length target_pages && Fingerprint.equal target_pages.(i) d
      then Hashtbl.replace have i own.(i))
    own_digests;
  Metrics.incr ~by:(Hashtbl.length have) t.metrics "state.pages_reused";
  let missing = ref [] in
  Array.iteri
    (fun i _ -> if not (Hashtbl.mem have i) then missing := i :: !missing)
    target_pages;
  let ctx = { fx_seq = seq; fx_digest = digest; fx_pages = target_pages; fx_have = have; fx_src = src } in
  t.fetch_ctx <- Some ctx;
  match !missing with
  | [] -> finish_page_fetch t ctx
  | missing ->
    Metrics.incr ~by:(List.length missing) t.metrics "state.pages_requested";
    out_send t ~dst:t.replicas.(src)
      (Message.Get_pages
         { gp_seq = seq; gp_indexes = List.rev missing; gp_replica = t.id })

and on_get_pages t (g : Message.get_pages) =
  if
    g.Message.gp_seq = t.last_stable
    && g.Message.gp_replica >= 0
    && g.Message.gp_replica < t.config.Config.n
    && g.Message.gp_replica <> t.id
  then begin
    let pages = Merkle.paginate (Lazy.force t.stable_snapshot) in
    let selected =
      List.filter_map
        (fun i ->
          if i >= 0 && i < Array.length pages then Some (i, pages.(i)) else None)
        g.Message.gp_indexes
    in
    (* Cap each datagram at ~16 pages to respect message-size realities. *)
    let rec chunks acc = function
      | [] -> List.rev acc
      | l ->
        let rec take n acc = function
          | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let chunk, rest = take 16 [] l in
        chunks (chunk :: acc) rest
    in
    List.iter
      (fun chunk ->
        out_send t
          ~dst:t.replicas.(g.Message.gp_replica)
          (Message.Pages { pg_seq = g.Message.gp_seq; pg_pages = chunk }))
      (chunks [] selected)
  end

and on_pages t (p : Message.pages_resp) =
  match t.fetch_ctx with
  | Some ctx when ctx.fx_seq = p.Message.pg_seq ->
    List.iter
      (fun (i, page) ->
        (* Page digests vouch for the content: a lying responder cannot
           smuggle in a corrupt page. *)
        if
          i >= 0
          && i < Array.length ctx.fx_pages
          && Fingerprint.equal (Payload.digest page) ctx.fx_pages.(i)
        then begin
          if not (Hashtbl.mem ctx.fx_have i) then begin
            Metrics.incr t.metrics "state.pages_fetched";
            Hashtbl.replace ctx.fx_have i page
          end
        end
        else Metrics.incr t.metrics "state.page_rejected")
      p.Message.pg_pages;
    if Hashtbl.length ctx.fx_have = Array.length ctx.fx_pages then
      finish_page_fetch t ctx
  | _ -> ()

and finish_page_fetch t ctx =
  let pages =
    Array.init (Array.length ctx.fx_pages) (fun i -> Hashtbl.find ctx.fx_have i)
  in
  drop_page_fetch t;
  adopt_state t ctx.fx_seq ctx.fx_digest (Merkle.reassemble pages)

(* Forget a page fetch in progress and the STATE-META votes behind it. *)
and drop_page_fetch t =
  t.fetch_ctx <- None;
  Hashtbl.reset t.meta_votes

(* The awaited state arrived (or ours was validated): stop asking. *)
and end_state_fetch t =
  t.await_state <- None;
  Timer.cancel t.state_timer;
  t.state_attempts <- 0;
  Hashtbl.reset t.state_votes

and adopt_state t seq digest snapshot =
  if
    t.recovering && seq <= t.last_executed && seq = t.last_stable
    && Fingerprint.equal digest t.stable_digest
  then begin
    (* Our state already matches the quorum's checkpoint: recovery only
       needed to validate it, not to roll anything back. *)
    t.recovering <- false;
    end_state_fetch t;
    Metrics.incr t.metrics "recovery.completed";
    Metrics.incr t.metrics "state.validated"
  end
  else adopt_state_restore t seq digest snapshot

and adopt_state_restore t seq digest snapshot =
  restore_snapshot t snapshot;
  prune_waiting t;
  let check = state_digest t in
  if Fingerprint.equal check digest then begin
    t.last_stable <- seq;
    t.stable_digest <- digest;
    t.stable_snapshot <- Lazy.from_val snapshot;
    t.log <- Log.create ~low:seq ~window:t.config.Config.log_window ();
    t.last_executed <- seq;
    t.last_committed <- seq;
    t.deferred_ro <- [];
    end_state_fetch t;
    drop_page_fetch t;
    if t.recovering then begin
      t.recovering <- false;
      Metrics.incr t.metrics "recovery.completed"
    end;
    Metrics.incr t.metrics "state.adopted";
    advance t
  end
  else Metrics.incr t.metrics "state.digest_mismatch"

(* --- primary: batching -------------------------------------------------- *)

and request_wire_size (r : Message.request) =
  (* Approximate encoded size: header + op bytes + padding. *)
  32 + String.length r.Message.op.Payload.data + r.Message.op.Payload.pad

and try_send_batch t =
  if is_orderer t && t.status = Normal && not (Queue.is_empty t.pending) then begin
    let cfg = t.config in
    let next_seq =
      if rotating t then
        (* Only slots in our epochs; skip to the next epoch we own. *)
        next_owned_seq t (Stdlib.max t.last_pp_seq t.last_stable)
      else Stdlib.max (t.last_pp_seq + 1) (t.last_stable + 1)
    in
    let window_open =
      (not cfg.Config.batching)
      ||
      if rotating t then
        (* n orderers pipeline concurrently: each may run a batch_window of
           its own slots ahead of execution. The distance bound alone can
           wedge a sparse cluster forever: with few active clients the
           busy orderer's nearest owned slot can sit beyond
           last_executed + batch_window * n with only idle owners' epochs
           in between — nothing is ever proposed, so the primary reclaim
           has nothing to chase, and view changes shift the home and
           owner maps together so retrying in a later view hits the same
           wall. The second disjunct opens the window whenever nothing at
           all is in flight beyond the execution point: the lowest owned
           slot is then always proposable, and its epoch-first handoff is
           what lets the other owners close the gap under it. When
           something IS in flight, holding back is safe — the in-flight
           slot commits (reclaim and view change guarantee it), execution
           catches up, and the window re-opens — and is what keeps
           requests accumulating into full batches under load. *)
        next_seq <= t.last_executed + (cfg.Config.batch_window * cfg.Config.n)
        || t.max_pp_seen <= t.last_executed
      else t.last_pp_seq < t.last_executed + cfg.Config.batch_window
    in
    if window_open && Log.in_window t.log next_seq then begin
      match Log.find t.log next_seq with
      | Some { Log.pp_digest = Some _; _ } when rotating t ->
        (* Someone already proposed here (NEW-VIEW re-proposal or a primary
           reclaim): move our cursor past it. *)
        t.last_pp_seq <- Stdlib.max t.last_pp_seq next_seq;
        try_send_batch t
      | _ ->
        send_assembled_batch t next_seq;
        (* Keep draining if more requests and window allows. *)
        try_send_batch t
    end
  end

(* Pick requests off the queue up to the batch bound, deciding each
   request's shape (inline vs digest summary) exactly once, and propose
   the batch at [seq]. The caller guarantees the queue is non-empty. *)
and send_assembled_batch t seq =
  let cfg = t.config in
  let entries = ref [] and digests = ref [] and bytes = ref 0 and count = ref 0 in
  let continue = ref true in
  while !continue && not (Queue.is_empty t.pending) do
    let r, digest = Queue.peek t.pending in
    let summarize =
      cfg.Config.separate_request_transmission
      && Payload.size r.Message.op > Config.inline_threshold
    in
    let sz = if summarize then Fingerprint.size else request_wire_size r in
    if
      !count > 0
      && (!bytes + sz > Config.max_batch_bytes
         || !count >= cfg.Config.max_batch_requests
         || not cfg.Config.batching)
    then continue := false
    else begin
      ignore (Queue.pop t.pending);
      bytes := !bytes + sz;
      incr count;
      let entry = if summarize then Message.Summary digest else Message.Full r in
      entries := entry :: !entries;
      digests := digest :: !digests
    end
  done;
  send_pre_prepare t seq (List.rev !entries) (List.rev !digests);
  Metrics.incr t.metrics "batch.sent";
  Metrics.sample t.metrics "batch.size" (float_of_int !count)

and send_pre_prepare t seq entries digests =
  let digest = Message.batch_digest_of_entry_digests digests in
  let slot = Log.get t.log seq in
  slot.Log.pp_digest <- Some digest;
  slot.Log.proposer <- t.id;
  (* Our own proposal never waits for a body: we summarized only requests
     we received. *)
  learn_batch ~missing:[] t slot t.view entries digests;
  Hashtbl.replace t.batch_store digest (seq, entries, digests);
  (* [max]: a rotating-mode primary reclaim can propose below our own
     cursor; the cursor must never move backwards. *)
  t.last_pp_seq <- Stdlib.max t.last_pp_seq seq;
  t.max_pp_seen <- Stdlib.max t.max_pp_seen seq;
  (match t.behavior with
  | Behavior.Two_faced ->
    (* Equivocate: half the backups see a different batch for this seq. *)
    let pp = { Message.view = t.view; seq; entries } in
    let alt = { Message.view = t.view; seq; entries = [ Message.Null_entry ] } in
    List.iter
      (fun (p : Transport.peer) ->
        let msg =
          if p.principal mod 2 = 1 then Message.Pre_prepare alt
          else Message.Pre_prepare pp
        in
        out_send t ~dst:p msg)
      (peers_except_self t)
  | _ -> multicast_proposal t seq entries);
  Metrics.incr t.metrics "preprepare.sent";
  emit_trace t ~seqno:seq ~view:t.view
    ~detail:(string_of_int (List.length entries))
    Trace.Preprepare_sent;
  ensure_resend_timer t;
  advance t

(* --- backup: pre-prepare / prepare / commit ----------------------------- *)

and compute_missing t entries =
  List.filter_map
    (function
      | Message.Summary d when not (Hashtbl.mem t.request_store d) -> Some d
      | Message.Summary _ | Message.Full _ | Message.Null_entry -> None)
    entries

(* [slot] learns its batch: [entries], proposed in [view], with their
   [digests]. Keep the bodies the entries carry and wait for [missing] —
   by default the summaries whose bodies we lack. *)
and learn_batch ?missing t (slot : Log.slot) view entries digests =
  slot.Log.pre_prepare <- Some (view, entries);
  slot.Log.entry_digests <- digests;
  List.iter2
    (fun entry d ->
      match entry with
      | Message.Full r -> Hashtbl.replace t.request_store d r
      | Message.Summary _ | Message.Null_entry -> ())
    entries digests;
  Log.set_missing t.log slot
    (match missing with Some m -> m | None -> compute_missing t entries)

(* Every body of [slot]'s batch is present: keep the batch for NEW-VIEW
   re-proposals, prepare it unless we proposed it, and see whether it
   prepared. *)
and batch_complete t (slot : Log.slot) =
  (match (slot.Log.pp_digest, slot.Log.pre_prepare) with
  | Some d, Some (_, entries) ->
    Hashtbl.replace t.batch_store d (slot.Log.seq, entries, slot.Log.entry_digests)
  | _ -> ());
  if slot.Log.proposer <> t.id then send_prepare t slot;
  check_prepared t slot

and send_prepare t (slot : Log.slot) =
  match (slot.Log.pre_prepare, slot.Log.pp_digest) with
  | Some (v, _), Some digest when v = t.view && not slot.Log.own_prepare_sent ->
    slot.Log.own_prepare_sent <- true;
    Log.add_prepare slot t.id t.view digest;
    out_multicast t
      (Message.Prepare { view = t.view; seq = slot.Log.seq; digest; replica = t.id });
    Metrics.incr t.metrics "prepare.sent";
    check_prepared t slot
  | _ -> ()

and check_prepared t (slot : Log.slot) =
  if Log.is_prepared slot ~f:(f_of t) t.view then begin
    if slot.Log.prepared_at <> Some t.view then begin
      slot.Log.prepared_at <- Some t.view;
      Metrics.incr t.metrics "prepared";
      emit_trace t ~seqno:slot.Log.seq ~view:t.view Trace.Prepared
    end;
    if not slot.Log.own_commit_sent then broadcast_commit t slot;
    advance t
  end

and broadcast_commit t (slot : Log.slot) =
  match slot.Log.pp_digest with
  | None -> ()
  | Some digest ->
    slot.Log.own_commit_sent <- true;
    Log.add_commit slot t.id t.view digest;
    let c = { Message.view = t.view; seq = slot.Log.seq; digest; replica = t.id } in
    if t.config.Config.piggyback_commits then begin
      t.commit_backlog <- c :: t.commit_backlog;
      if not (Timer.active t.flush_timer) then
        t.flush_timer <-
          Timer.start (engine t) ~delay:Config.commit_flush_delay
            (fun () -> flush_commits t)
    end
    else out_multicast t (Message.Commit c);
    Metrics.incr t.metrics "commit.sent";
    check_committed t slot

and flush_commits t =
  match take_backlog t with
  | [] -> ()
  | first :: rest ->
    if not (muted t) then
      Transport.multicast t.transport ~commits:rest ~dsts:(peers_except_self t)
        (Message.Commit first)

and check_committed t (slot : Log.slot) =
  let committed =
    Log.is_committed slot ~f:(f_of t) t.view
    || (t.config.Config.unsafe_no_commit_quorum
       && Log.is_prepared slot ~f:(f_of t) t.view)
  in
  if (not slot.Log.committed) && committed then begin
    slot.Log.committed <- true;
    Metrics.incr t.metrics "committed";
    emit_trace t ~seqno:slot.Log.seq ~view:t.view Trace.Committed;
    advance t
  end

and on_pre_prepare t sender (pp : Message.pre_prepare) =
  let digests = List.map Message.entry_digest pp.Message.entries in
  accept_pre_prepare t sender pp digests
    (Message.batch_digest_of_entry_digests digests)

(* [digests] and [digest] are the entries' digests and the batch digest,
   computed once by the caller. *)
and accept_pre_prepare t sender (pp : Message.pre_prepare) digests digest =
  note_vc_evidence t sender pp.Message.view;
  match Log.find t.log pp.Message.seq with
  | Some ({ Log.pp_digest = Some d; _ } as slot)
    when Fingerprint.equal d digest && pp.Message.entries <> [] ->
    (* A retransmitted/fetched body for a batch we already know by digest:
       any sender is fine, the digest vouches for the content. *)
    let view =
      match slot.Log.pre_prepare with Some (v, _) -> v | None -> pp.Message.view
    in
    learn_batch t slot view pp.Message.entries digests;
    if slot.Log.missing_bodies = [] then begin
      batch_complete t slot;
      advance t
    end
  | existing -> (
    if
      t.status = Normal && pp.Message.view = t.view
      && (sender = seq_owner t pp.Message.seq
         (* Mencius-style reclaim: the view primary may null-fill a stalled
            owner's slots. Only the null batch is acceptable from it, so it
            cannot usurp ordering of real requests. *)
         || rotating t
            && sender = primary_id t
            && pp.Message.entries = [ Message.Null_entry ])
      && Log.in_window t.log pp.Message.seq
    then
      match existing with
      | Some { Log.pp_digest = Some d; _ } when not (Fingerprint.equal d digest) ->
        (* Conflicting assignment for this (view, seq): the primary is
           provably faulty. *)
        Metrics.incr t.metrics "preprepare.conflicting";
        start_view_change t (t.view + 1)
      | Some ({ Log.pp_digest = Some _; _ } as slot) ->
        (* Duplicate pre-prepare. If we already finalized this slot, the
           primary is resending because it lacks our commit: echo it. *)
        echo_commit_if_finalized t sender slot
      | _ ->
        let slot = Log.get t.log pp.Message.seq in
        slot.Log.pp_digest <- Some digest;
        slot.Log.proposer <- sender;
        learn_batch t slot t.view pp.Message.entries digests;
        Metrics.incr t.metrics "preprepare.accepted";
        emit_trace t ~seqno:pp.Message.seq ~view:t.view Trace.Preprepare_accepted;
        t.max_pp_seen <- Stdlib.max t.max_pp_seen pp.Message.seq;
        ensure_resend_timer t;
        if slot.Log.missing_bodies = [] then batch_complete t slot
        else begin
          (* The summarized request bodies are usually still in flight from
             the client's multicast (the pre-prepare is small and overtakes
             them on our ingress link); fetch from the primary only if they
             have not arrived shortly. *)
          Metrics.incr t.metrics "preprepare.awaiting_bodies";
          let seq = pp.Message.seq and v = t.view in
          Engine.schedule (engine t) ~delay:0.004 (fun () ->
              if t.view = v then
                match Log.find t.log seq with
                | Some { Log.missing_bodies = _ :: _; _ } ->
                  Metrics.incr t.metrics "fetch.sent";
                  fetch_batch t seq
                | _ -> ())
        end)

(* A request body just arrived: unblock any slot whose pre-prepare was
   waiting for it. *)
and resolve_missing t digest =
  List.iter
    (fun seq ->
      match Log.find t.log seq with
      | Some ({ Log.pre_prepare = Some (_, entries); _ } as slot)
        when List.exists (Fingerprint.equal digest) slot.Log.missing_bodies ->
        Log.set_missing t.log slot (compute_missing t entries);
        if slot.Log.missing_bodies = [] then batch_complete t slot
      | _ -> ())
    (Log.waiting_for t.log digest);
  advance t

(* Rotating mode: an epoch-first PRE-PREPARE from an epoch owner. Process
   the proposal itself, then use the handoff information: [opp_close] is
   the proposer's committed prefix, so every slot of OURS in
   (opp_close, epoch_first) that nobody proposed yet would otherwise
   block global execution order until our next batch. Claim those slots
   now — with real batches if work is pending, null requests otherwise. *)
and on_ordered_pre_prepare t sender (o : Message.ordered_pre_prepare) =
  let digests = List.map Message.entry_digest o.Message.opp_entries in
  let digest = Message.batch_digest_of_entry_digests digests in
  accept_pre_prepare t sender
    {
      Message.view = o.Message.opp_view;
      seq = o.Message.opp_seq;
      entries = o.Message.opp_entries;
    }
    digests digest;
  let embedded_accepted () =
    match Log.find t.log o.Message.opp_seq with
    | Some { Log.pp_digest = Some d; proposer; _ } ->
      proposer = sender && Fingerprint.equal d digest
    | _ -> false
  in
  (* The handoff side effects run only for a *legitimate* handoff: the
     sender must own [opp_seq], the slot must be epoch-first, and the
     embedded pre-prepare must have been accepted above. Without these
     gates a Byzantine replica could multicast an arbitrary in-window
     [opp_seq] and make every correct replica burn its owned slots on
     fill traffic. *)
  if
    rotating t && t.status = Normal
    && o.Message.opp_view = t.view
    && sender = seq_owner t o.Message.opp_seq
    && o.Message.opp_seq = epoch_first_seq t o.Message.opp_seq
    && embedded_accepted ()
  then begin
    (* The gap slots sit *below* the already-proposed frontier, so the
       batching window (a bound on proposing ahead of execution) does not
       apply to them — fill each with a real batch while requests are
       pending and only fall back to a null request when the queue runs
       dry. Nulling while work is queued would burn our owned slots and
       force the queued requests even further ahead. *)
    let first = epoch_first_seq t o.Message.opp_seq in
    let s =
      ref
        (next_owned_seq t
           (Stdlib.max o.Message.opp_close
              (Stdlib.max t.last_pp_seq t.last_stable)))
    in
    while !s < first && Log.in_window t.log !s do
      (match Log.find t.log !s with
      | Some { Log.pp_digest = Some _; _ } -> ()
      | _ ->
        if Queue.is_empty t.pending then begin
          Metrics.incr t.metrics "rotate.null_fill";
          send_pre_prepare t !s [ Message.Null_entry ] [ Fingerprint.zero ]
        end
        else send_assembled_batch t !s);
      s := next_owned_seq t !s
    done;
    try_send_batch t
  end

(* A PREPARE for a slot we already finalized means the sender is behind:
   hand it our commit so it can complete its certificate (PBFT's
   status-message retransmission, narrowed to the common case). Only
   prepares trigger the echo — echoing on commits would let two finalized
   replicas bounce commits at each other forever, since the echo itself is
   a commit. *)
and echo_commit_if_finalized t sender (slot : Log.slot) =
  if slot.Log.finalized && sender <> t.id then
    match slot.Log.pp_digest with
    | Some digest ->
      out_send t ~dst:t.replicas.(sender)
        (Message.Commit { view = t.view; seq = slot.Log.seq; digest; replica = t.id })
    | None -> ()

and note_vc_evidence t sender view =
  (* [view = -1] encodes "sender is itself view-changing": not evidence. *)
  if t.status = View_changing && view = t.view then begin
    Hashtbl.replace t.vc_evidence sender ();
    maybe_abandon_view_change t
  end

(* A view change that recruits nobody is abandoned once f+1 distinct
   replicas are seen operating normally in our current view and the new
   primary has had ample time: with at most f faults, someone correct is
   live in the old view and our participation may be indispensable for its
   quorum. Abandoning is safe — it is equivalent to our VIEW-CHANGE being
   delayed in the network (it remains valid if a NEW-VIEW later uses it). *)
and maybe_abandon_view_change t =
  let backing = vc_backing t in
  let evidence = Hashtbl.length t.vc_evidence in
  if
    t.status = View_changing
    (* The window scales with the same capped exponential backoff as the
       view-change retries themselves ([vc_timeout] reads [vc_attempts]):
       with a flat window, attempt k's retry fires after the abandonment
       deadline has already passed, so evidence arriving mid-backoff would
       flap the replica between Normal and View_changing forever. *)
    && Engine.now (engine t) -. t.vc_started_at > 2.0 *. vc_timeout t
    && backing < quorum ~f:(f_of t)
    && (evidence >= weak_quorum ~f:(f_of t)
       || (evidence >= 1 && backing < weak_quorum ~f:(f_of t)))
  then begin
    Metrics.incr t.metrics "viewchange.abandoned";
    t.status <- Normal;
    t.target_view <- t.view;
    Hashtbl.reset t.vc_evidence;
    Timer.cancel t.vc_timer;
    arm_waiting_timer t;
    ensure_resend_timer t;
    advance t
  end

and on_prepare t sender (p : Message.prepare) =
  note_vc_evidence t sender p.Message.view;
  if
    t.status = Normal && p.Message.view = t.view
    (* In rotating mode any replica can be a proposer, so prepares are
       accepted from everyone; [Log.is_prepared] excludes the recorded
       proposer's own prepare at certificate-count time instead. *)
    && (rotating t || sender <> primary_id t)
    && Log.in_window t.log p.Message.seq
  then begin
    let slot = Log.get t.log p.Message.seq in
    Log.add_prepare slot sender p.Message.view p.Message.digest;
    echo_commit_if_finalized t sender slot;
    if not slot.Log.finalized then ensure_resend_timer t;
    check_prepared t slot
  end

and on_commit t sender (c : Message.commit) =
  note_vc_evidence t sender c.Message.view;
  if
    t.status = Normal && c.Message.view = t.view
    && Log.in_window t.log c.Message.seq
  then begin
    let slot = Log.get t.log c.Message.seq in
    Log.add_commit slot sender c.Message.view c.Message.digest;
    if not slot.Log.finalized then ensure_resend_timer t;
    check_committed t slot
  end

and on_fetch_batch t (fb : Message.fetch_batch) =
  if fb.Message.fb_replica >= 0 && fb.Message.fb_replica < t.config.Config.n then
    match Log.find t.log fb.Message.fb_seq with
    | Some { Log.pre_prepare = Some (_, entries); missing_bodies = []; _ } ->
      send_resolved t ~dst:fb.Message.fb_replica ~view:fb.Message.fb_view
        fb.Message.fb_seq entries
    | _ -> ()

(* Ask the others for the batch at [seq] in our view, bodies resolved. *)
and fetch_batch t seq =
  out_multicast t
    (Message.Fetch_batch { fb_view = t.view; fb_seq = seq; fb_replica = t.id })

(* Send a lagging peer a batch of ours as a PRE-PREPARE, with every summary
   whose body we hold replaced by the body it lacks. *)
and send_resolved t ~dst ~view seq entries =
  let resolved =
    List.map
      (function
        | Message.Summary d as e -> (
          match Hashtbl.find_opt t.request_store d with
          | Some r -> Message.Full r
          | None -> e)
        | (Message.Full _ | Message.Null_entry) as e -> e)
      entries
  in
  out_send t ~dst:t.replicas.(dst)
    (Message.Pre_prepare { view; seq; entries = resolved })

(* --- requests ----------------------------------------------------------- *)

and on_request t sender (r : Message.request) =
  if sender <> r.Message.client then Metrics.incr t.metrics "request.bad_sender"
  else begin
    let ce = client_entry t r.Message.client in
    if r.Message.timestamp > ce.last_ts then
      emit_trace t ~view:t.view ~req_id:(trace_req r)
        ~detail:(if orders_for t r.Message.client then "primary" else "backup")
        Trace.Request_recv;
    if r.Message.timestamp <= ce.last_ts then begin
      resend_cached_reply t r;
      (* A retransmission answered from a still-tentative cached reply
         means the commit for that batch is stalled: treat it as a pending
         request for liveness purposes. *)
      if ce.last_ts = r.Message.timestamp && ce.cached_tentative
         && not (orders_for t r.Message.client)
      then begin
        Hashtbl.replace t.waiting (Message.request_digest r) (Engine.now (engine t));
        arm_waiting_timer t;
        ensure_resend_timer t
      end
    end
    else if
      r.Message.read_only && t.config.Config.read_only_optimization
      && t.service.Service.is_read_only r.Message.op
    then begin
      (* Read-only optimization: execute immediately; reply once every
         previously executed request has committed. *)
      charge ~cat:Cpu.Exec t (t.service.Service.execute_cost r.Message.op);
      let result, _undo =
        t.service.Service.execute ~client:r.Message.client ~op:r.Message.op
      in
      charge ~cat:Cpu.Digest t
        (Calibration.digest_cost (cal t) (Payload.size result));
      Metrics.incr t.metrics "exec.read_only";
      emit_trace t ~view:t.view ~req_id:(trace_req r) ~detail:"read-only"
        Trace.Exec_request;
      if t.last_executed = t.last_committed && t.status = Normal then
        send_reply t r result ~tentative:false
      else t.deferred_ro <- (r, result) :: t.deferred_ro
    end
    else begin
      let digest = Message.request_digest r in
      Hashtbl.replace t.request_store digest r;
      resolve_missing t digest;
      if orders_for t r.Message.client && t.status = Normal then begin
        let queued = Hashtbl.find_opt t.queued_ts r.Message.client in
        let fresh =
          match queued with Some ts -> r.Message.timestamp > ts | None -> true
        in
        if fresh then admit_request t r digest ~record_ts:true
        else if r.Message.full_replies then begin
          (* Retransmission of something we may have lost in a view change:
             if it is no longer in flight, propose it again. *)
          if not (in_flight t digest) && not (Queue.fold (fun acc ((q : Message.request), _) -> acc || (q.Message.client = r.Message.client && q.Message.timestamp = r.Message.timestamp)) false t.pending) then
            admit_request t r digest ~record_ts:false
        end
      end
      else begin
        (* Backup: remember the request and watch the primary. *)
        Hashtbl.replace t.waiting digest (Engine.now (engine t));
        arm_waiting_timer t;
        ensure_resend_timer t
      end
    end
  end

and in_flight t digest =
  let found = ref false in
  Log.iter t.log (fun slot ->
      if
        (not slot.Log.executed)
        && List.exists (Fingerprint.equal digest) slot.Log.entry_digests
      then found := true);
  !found

(* --- view changes -------------------------------------------------------- *)

and rollback_tentative t =
  (* Deferred read-only results read tentative state: once that state rolls
     back they must never be sent (the client times out and falls back to
     the read-write path, as designed). *)
  if t.last_executed > t.last_committed then t.deferred_ro <- [];
  while t.last_executed > t.last_committed do
    (match Log.find t.log t.last_executed with
    | Some slot ->
      List.iter (fun undo -> undo ()) slot.Log.undos;
      slot.Log.undos <- [];
      slot.Log.executed <- false;
      Metrics.incr t.metrics "exec.rolled_back"
    | None ->
      (* Unreachable: an executed-but-uncommitted slot is always still in
         the log. Checkpoints are only taken in [finalize_slot], so every
         truncation point [make_stable] uses satisfies
         last_stable <= last_committed < here <= last_executed; the other
         log replacements ([adopt_state_restore], [restart]) equalize
         last_executed and last_committed first, and [install_new_view]
         rolls back before swapping the log. Silently skipping would leak
         the slot's undos and leave tentative service state behind. *)
      assert false);
    t.last_executed <- t.last_executed - 1
  done

and start_view_change t next_view =
  match t.behavior with
  | Behavior.Stale_view -> ()
  | _ ->
    if next_view > t.target_view then begin
      Timer.cancel t.vc_timer;
      rollback_tentative t;
      t.status <- View_changing;
      t.target_view <- next_view;
      t.vc_started_at <- Engine.now (engine t);
      Hashtbl.reset t.vc_evidence;
      t.vc_attempts <- t.vc_attempts + 1;
      Metrics.incr t.metrics "viewchange.started";
      emit_trace t ~view:next_view Trace.Viewchange_start;
      let prepared = ref [] in
      Log.iter t.log (fun slot ->
          match (slot.Log.prepared_at, slot.Log.pre_prepare, slot.Log.pp_digest) with
          | Some v, _, Some digest ->
            prepared := { Message.view = v; seq = slot.Log.seq; digest } :: !prepared
          | None, Some (v, _), Some digest when slot.Log.committed ->
            (* A committed batch is a fortiori prepared; its certificate must
               survive even if this slot was installed pre-finalized by an
               earlier NEW-VIEW and never re-ran its prepare round. *)
            prepared := { Message.view = v; seq = slot.Log.seq; digest } :: !prepared
          | _ -> ());
      let vc =
        {
          Message.next_view;
          last_stable = t.last_stable;
          stable_digest = t.stable_digest;
          prepared = List.rev !prepared;
          replica = t.id;
        }
      in
      record_view_change t t.id vc;
      out_multicast t (Message.View_change vc);
      ensure_resend_timer t;
      (* NOTE: the escalation timer towards next_view+1 is only armed once
         2f+1 VIEW-CHANGE messages for next_view have gathered (PBFT
         4.5.2); a solo view-changer must keep waiting (and resending its
         VIEW-CHANGE) rather than ladder through views nobody else wants. *)
      maybe_arm_escalation t;
      check_new_view t next_view
    end

and record_view_change t sender vc =
  let table =
    match Hashtbl.find_opt t.view_changes vc.Message.next_view with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.view_changes vc.Message.next_view tbl;
      tbl
  in
  if not (Hashtbl.mem table sender) then Hashtbl.replace table sender vc;
  maybe_arm_escalation t

(* PBFT's escalation rule: once a quorum backs the view change, start a
   timer; if the new primary produces no NEW-VIEW in time, move on. *)
and maybe_arm_escalation t =
  if t.status = View_changing && not (Timer.active t.vc_timer) then begin
    if vc_backing t >= quorum ~f:(f_of t) then begin
      let next_view = t.target_view in
      t.vc_timer <-
        Timer.start (engine t) ~delay:(vc_timeout t) (fun () ->
            if t.status = View_changing && t.view < next_view then begin
              Metrics.incr t.metrics "viewchange.stalled";
              start_view_change t (next_view + 1)
            end)
    end
  end

and on_view_change t sender (vc : Message.view_change) =
  (* A replica still asking for an old view missed our NEW-VIEW: repeat it. *)
  (if sender = vc.Message.replica && vc.Message.next_view <= t.view then
     match t.last_nv with
     | Some nv when nv.Message.view >= vc.Message.next_view && sender <> t.id ->
       out_send t ~dst:t.replicas.(sender) (Message.New_view nv)
     | _ -> ());
  if sender = vc.Message.replica && vc.Message.next_view > t.view then begin
    record_view_change t sender vc;
    (* Join rule: if f+1 replicas are already past our view, at least one
       correct replica timed out — follow the smallest such view. *)
    let ahead = Hashtbl.create 8 in
    Hashtbl.iter
      (fun v table ->
        if v > t.target_view then
          Hashtbl.iter
            (fun r _ ->
              match Hashtbl.find_opt ahead r with
              | Some v' when v' <= v -> ()
              | _ -> Hashtbl.replace ahead r v)
            table)
      t.view_changes;
    if Hashtbl.length ahead >= weak_quorum ~f:(f_of t) then begin
      let min_view = Hashtbl.fold (fun _ v acc -> Stdlib.min v acc) ahead max_int in
      start_view_change t min_view
    end;
    check_new_view t vc.Message.next_view
  end

and check_new_view t next_view =
  if
    primary_of_view ~n:t.config.Config.n next_view = t.id
    && next_view > t.view && next_view > t.nv_sent
  then
    match Hashtbl.find_opt t.view_changes next_view with
    | Some table
      when Hashtbl.length table >= quorum ~f:(f_of t) && Hashtbl.mem table t.id ->
      let vcs = Hashtbl.fold (fun _ vc acc -> vc :: acc) table [] in
      let nv = build_new_view t next_view vcs in
      t.nv_sent <- next_view;
      t.last_nv <- Some nv;
      out_multicast t (Message.New_view nv);
      Metrics.incr t.metrics "newview.sent";
      install_new_view t nv
    | _ -> ()

and build_new_view t next_view vcs =
  let min_s =
    List.fold_left (fun acc vc -> Stdlib.max acc vc.Message.last_stable) 0 vcs
  in
  (* For every sequence number above min_s, re-propose the batch prepared in
     the highest view; gaps get the null request. *)
  let best = Hashtbl.create 32 in
  let max_s = ref min_s in
  List.iter
    (fun vc ->
      List.iter
        (fun (p : Message.prepared_proof) ->
          if p.Message.seq > min_s then begin
            max_s := Stdlib.max !max_s p.Message.seq;
            match Hashtbl.find_opt best p.Message.seq with
            | Some (q : Message.prepared_proof) when q.Message.view >= p.Message.view
              -> ()
            | _ -> Hashtbl.replace best p.Message.seq p
          end)
        vc.Message.prepared)
    vcs;
  let entries = ref [] in
  for seq = !max_s downto min_s + 1 do
    let entry =
      match Hashtbl.find_opt best seq with
      | Some proof ->
        let body =
          match Hashtbl.find_opt t.batch_store proof.Message.digest with
          | Some (_, entries, _) -> entries
          | None -> []  (* unknown body: receivers fetch it *)
        in
        { Message.seq; digest = proof.Message.digest; entries = body }
      | None ->
        {
          Message.seq;
          digest = Message.batch_digest [ Message.Null_entry ];
          entries = [ Message.Null_entry ];
        }
    in
    entries := entry :: !entries
  done;
  let supporters =
    List.map (fun (vc : Message.view_change) -> vc.Message.replica) vcs
  in
  { Message.view = next_view; supporters; min_s; nv_entries = !entries }

and on_new_view t sender (nv : Message.new_view) =
  match t.behavior with
  | Behavior.Stale_view -> ()
  | _ ->
    if
      sender = primary_of_view ~n:t.config.Config.n nv.Message.view
      && nv.Message.view > t.view
      && List.length (List.sort_uniq compare nv.Message.supporters)
         >= quorum ~f:(f_of t)
    then begin
      Metrics.incr t.metrics "newview.accepted";
      t.last_nv <- Some nv;
      install_new_view t nv
    end

and install_new_view t (nv : Message.new_view) =
  rollback_tentative t;
  Timer.cancel t.vc_timer;
  let min_s = nv.Message.min_s in
  let old_log = t.log in
  (* The new log is based at the new-view's checkpoint; if our own stable
     checkpoint is newer we keep it (we are ahead of the quorum minimum). *)
  t.log <-
    Log.create ~low:(Stdlib.max min_s t.last_stable)
      ~window:t.config.Config.log_window ();
  t.view <- nv.Message.view;
  t.target_view <- nv.Message.view;
  t.status <- Normal;
  Hashtbl.reset t.vc_evidence;
  (* Note: vc_attempts is NOT reset here. The timeout only shrinks again
     when requests actually execute; resetting on every NEW-VIEW would let
     a lossy network sustain a view-change storm whose period never grows
     past the time a batch needs to commit. *)
  (* Drop accumulated VIEW-CHANGE records: they reflect past instability,
     and replicas that are still genuinely changing views keep
     retransmitting, so live intent repopulates the table. Without this,
     stale records for assorted future views eventually satisfy the f+1
     join rule forever (a view-change ladder). *)
  Hashtbl.reset t.view_changes;
  t.nv_sent <- Stdlib.max t.nv_sent (if is_primary t then nv.Message.view else t.nv_sent);
  t.commit_backlog <- [];
  List.iter
    (fun (e : Message.new_view_entry) ->
      if e.Message.seq > Log.low_watermark t.log && Log.in_window t.log e.Message.seq
      then begin
        let slot = Log.get t.log e.Message.seq in
        (* Our own NEW-VIEW re-proposes the bodies of [batch_store], whose
           digests are already known. *)
        let entries, digests =
          match Hashtbl.find_opt t.batch_store e.Message.digest with
          | Some (_, body, digests)
            when e.Message.entries = [] || e.Message.entries == body ->
            (body, digests)
          | _ ->
            (e.Message.entries, List.map Message.entry_digest e.Message.entries)
        in
        slot.Log.pp_digest <- Some e.Message.digest;
        (* NEW-VIEW re-proposals come from the new primary regardless of
           which epoch owner proposed them originally. *)
        slot.Log.proposer <- primary_id t;
        t.max_pp_seen <- Stdlib.max t.max_pp_seen e.Message.seq;
        if entries <> [] then begin
          learn_batch t slot t.view entries digests;
          Hashtbl.replace t.batch_store e.Message.digest
            (e.Message.seq, entries, digests)
        end
        else
          (* Body unknown: the slot waits for the whole batch. *)
          learn_batch ~missing:[ e.Message.digest ] t slot t.view [] [];
        (* Carry over execution state for batches we already finalized; the
           slot keeps counting as prepared so the certificate appears in any
           later VIEW-CHANGE we send. The prepare/commit rounds are still
           re-run below (as in PBFT): a replica that fell behind needs fresh
           certificates in the new view, and with f crashed replicas ours
           may be indispensable for its quorum. *)
        (match Log.find old_log e.Message.seq with
        | Some old
          when old.Log.finalized
               && old.Log.pp_digest = Some e.Message.digest ->
          slot.Log.executed <- true;
          slot.Log.committed <- true;
          slot.Log.finalized <- true;
          slot.Log.prepared_at <- Some t.view
        | _ -> ());
        if slot.Log.missing_bodies <> [] then fetch_batch t e.Message.seq
        else if not (is_primary t) then send_prepare t slot
      end)
    nv.Message.nv_entries;
  (if is_orderer t then
     let top =
       List.fold_left
         (fun acc (e : Message.new_view_entry) -> Stdlib.max acc e.Message.seq)
         min_s nv.Message.nv_entries
     in
     (* Never assign a sequence number at or below one we already executed:
        other replicas may have finalized a different batch there. In
        rotating mode every replica is an orderer, so everyone advances its
        proposal cursor past the NEW-VIEW's re-proposals. *)
     t.last_pp_seq <- Stdlib.max t.last_pp_seq (Stdlib.max top t.last_executed));
  (* If the quorum's checkpoint is ahead of us we must fetch state before
     executing anything in the new view. *)
  if min_s > t.last_executed then request_state t ~target:min_s;
  Metrics.incr t.metrics "newview.installed";
  emit_trace t ~view:t.view Trace.Viewchange_end;
  arm_waiting_timer t;
  advance t

(* --- envelope entry point ----------------------------------------------- *)

and on_status t sender (st : Message.status) =
  if sender = st.Message.st_replica then begin
    note_vc_evidence t sender
      (if st.Message.st_vc then -1 else st.Message.st_view);
    (* A peer stuck in an older view missed the NEW-VIEW: repeat it. *)
    (if st.Message.st_view < t.view then
       match t.last_nv with
       | Some nv when nv.Message.view = t.view ->
         out_send t ~dst:t.replicas.(sender) (Message.New_view nv)
       | _ -> ());
    if st.Message.st_view = t.view && not st.Message.st_vc then begin
      (* Resend the certificates for the next few slots the peer lacks. *)
      if st.Message.st_committed < t.last_committed then begin
        let upto =
          Stdlib.min t.last_committed (st.Message.st_committed + 4)
        in
        for seq = st.Message.st_committed + 1 to upto do
          match Log.find t.log seq with
          | Some ({ Log.pre_prepare = Some (v, entries); missing_bodies = []; _ } as slot)
            when v = t.view ->
            Metrics.incr t.metrics "status.retransmit";
            send_resolved t ~dst:sender ~view:t.view seq entries;
            (match slot.Log.pp_digest with
            | Some digest when slot.Log.own_commit_sent || slot.Log.finalized ->
              out_send t ~dst:t.replicas.(sender)
                (Message.Commit { view = t.view; seq; digest; replica = t.id })
            | _ -> ())
          | _ -> ()
        done
      end;
      (* Behind our stable checkpoint: help it assemble the stable
         certificate so it can state-transfer. *)
      if st.Message.st_stable < t.last_stable then
        out_send t ~dst:t.replicas.(sender)
          (Message.Checkpoint
             { seq = t.last_stable; digest = t.stable_digest; replica = t.id })
    end
  end

and on_new_key t (k : Message.new_key) =
  Keychain.observe_epoch (Transport.keychain t.transport) ~peer:k.Message.nk_replica
    k.Message.epoch

and handle_message t sender msg =
  match msg with
  | Message.Request r -> on_request t sender r
  | _ when sender < 0 || sender >= t.config.Config.n ->
    (* Clients share the replicas' key derivation, so authentication alone
       does not make a sender a replica: only replicas may vote, propose,
       checkpoint or take part in view changes and state transfer. *)
    Metrics.incr t.metrics "auth.not_replica"
  | Message.Pre_prepare pp -> on_pre_prepare t sender pp
  | Message.Ordered_pre_prepare o -> on_ordered_pre_prepare t sender o
  | Message.Prepare p -> on_prepare t sender p
  | Message.Commit c -> on_commit t sender c
  | Message.Checkpoint c ->
    if sender = c.Message.replica then begin
      record_checkpoint_vote t ~seq:c.Message.seq ~digest:c.Message.digest
        ~from:sender;
      try_stabilize t c.Message.seq
    end
  | Message.View_change vc -> on_view_change t sender vc
  | Message.New_view nv -> on_new_view t sender nv
  | Message.Get_state g -> if sender = g.Message.replica then on_get_state t g
  | Message.State s -> on_state t s
  | Message.State_meta m -> on_state_meta t sender m
  | Message.Get_pages g -> if sender = g.Message.gp_replica then on_get_pages t g
  | Message.Pages p -> on_pages t p
  | Message.Fetch_batch fb -> if sender = fb.Message.fb_replica then on_fetch_batch t fb
  | Message.Reply _ -> Metrics.incr t.metrics "unexpected.reply"
  | Message.New_key k -> if sender = k.Message.nk_replica then on_new_key t k
  | Message.Status st -> on_status t sender st
  | Message.Busy _ -> Metrics.incr t.metrics "unexpected.busy"

(* Replay attack: keep a ring of authenticated datagrams exactly as they
   arrived and occasionally re-inject one onto the wire, bypassing the
   transport (the original sender's MAC vector is still valid for every
   receiver the datagram was multicast to). Correct replicas must shrug
   these off via duplicate suppression and timestamp checks. *)
let maybe_replay t ~wire ~size =
  t.replay_ring.(t.replay_pos) <- (wire, size);
  t.replay_pos <- (t.replay_pos + 1) mod Array.length t.replay_ring;
  t.replay_len <- Stdlib.min (t.replay_len + 1) (Array.length t.replay_ring);
  if Rng.bernoulli t.rng 0.25 then begin
    let old_wire, old_size = t.replay_ring.(Rng.int t.rng t.replay_len) in
    let net = Transport.network t.transport in
    let dsts =
      peers_except_self t |> List.map (fun (p : Transport.peer) -> p.node)
    in
    Metrics.incr t.metrics "replay.injected";
    Network.multicast net ~src:(Transport.node t.transport) ~dsts ~size:old_size
      old_wire
  end

let handle_envelope t ~wire ~prefix_len ~size (env : Message.envelope) =
  (match t.behavior with
  | Behavior.Slow extra -> charge t extra
  | _ -> ());
  match Transport.check t.transport ~wire ~prefix_len ~size env with
  | Transport.Accepted ->
    (match t.behavior with
    | Behavior.Replay -> maybe_replay t ~wire ~size
    | _ -> ());
    Metrics.incr t.metrics (Message.recv_counter env.Message.msg);
    (* Piggybacked commits: only the sender's own commits are credible,
       and only a replica's ([handle_message] drops the rest). *)
    List.iter
      (fun (c : Message.commit) ->
        if c.Message.replica = env.Message.sender then begin
          Metrics.incr t.metrics "piggy.received";
          handle_message t env.Message.sender (Message.Commit c)
        end)
      env.Message.commits;
    handle_message t env.Message.sender env.Message.msg
  | Transport.Replayed -> Metrics.incr t.metrics "auth.replay_dropped"
  | Transport.Rejected -> Metrics.incr t.metrics "auth.failed"

let dump t =
  let b = Buffer.create 256 in
  Printf.bprintf b "replica %d: view=%d status=%s target=%d\n" t.id t.view
    (match t.status with Normal -> "normal" | View_changing -> "view-changing")
    t.target_view;
  Printf.bprintf b "  exec=%d committed=%d stable=%d pp_seq=%d low=%d high=%d\n"
    t.last_executed t.last_committed t.last_stable t.last_pp_seq
    (Log.low_watermark t.log) (Log.high_watermark t.log);
  Printf.bprintf b "  pending=%d waiting=%d await_state=%s recovering=%b attempts=%d\n"
    (Queue.length t.pending) (Hashtbl.length t.waiting)
    (match t.await_state with None -> "-" | Some s -> string_of_int s)
    t.recovering t.vc_attempts;
  Log.iter t.log (fun slot ->
      if slot.Log.seq <= t.last_committed + 3 then
        Printf.bprintf b
          "  slot %d: pp=%s digest=%s missing=%d prepares=%d commits=%d \
           prepared@=%s committed=%b exec=%b final=%b own_p=%b own_c=%b\n"
          slot.Log.seq
          (match slot.Log.pre_prepare with
          | Some (v, entries) -> Printf.sprintf "v%d/%d" v (List.length entries)
          | None -> "-")
          (match slot.Log.pp_digest with
          | Some d -> Format.asprintf "%a" Fingerprint.pp d
          | None -> "-")
          (List.length slot.Log.missing_bodies)
          (Hashtbl.length slot.Log.prepares)
          (Hashtbl.length slot.Log.commits)
          (match slot.Log.prepared_at with Some v -> string_of_int v | None -> "-")
          slot.Log.committed slot.Log.executed slot.Log.finalized
          slot.Log.own_prepare_sent slot.Log.own_commit_sent);
  Buffer.add_string b (Metrics.dump t.metrics);
  Buffer.contents b

let start_recovery t =
  Metrics.incr t.metrics "recovery.started";
  Keychain.refresh (Transport.keychain t.transport);
  let epoch = Keychain.epoch (Transport.keychain t.transport) ~peer:0 in
  out_multicast t (Message.New_key { nk_replica = t.id; epoch });
  rollback_tentative t;
  t.recovering <- true;
  Hashtbl.reset t.state_votes;
  drop_page_fetch t;
  out_multicast t (Message.Get_state { from_seq = t.last_stable; replica = t.id });
  t.state_timer <-
    Timer.restart (engine t) t.state_timer
      ~delay:(2.0 *. t.config.Config.client_retry_timeout) (fun () ->
        if t.recovering then
          out_multicast t
            (Message.Get_state { from_seq = t.last_stable; replica = t.id }))

(* Runtime behaviour switch (chaos plans). Behaviours that leave residue
   outside the replica record are reconciled here: [Forge_auth] sets a
   transport flag that must be cleared when switching back, and a pending
   [Crash_at] cannot be un-scheduled so it is refused. *)
let set_behavior t b =
  (match b with
  | Behavior.Crash_at _ ->
    invalid_arg
      "Replica.set_behavior: schedule crashes through the network (set_up)"
  | _ -> ());
  (match t.behavior with
  | Behavior.Crash_at _ ->
    invalid_arg "Replica.set_behavior: replica has a scheduled crash"
  | _ -> ());
  t.behavior <- b;
  Transport.set_corrupt_auth t.transport (b = Behavior.Forge_auth);
  Metrics.incr t.metrics ("behavior." ^ Behavior.to_string b);
  (* A formerly mute replica may sit on armed timers whose ticks were
     swallowed; nudge the retransmission machinery so it rejoins. *)
  if Behavior.is_correct b then ensure_resend_timer t

(* Reboot from the last stable checkpoint: everything volatile — the log
   above the checkpoint, certificates, queued work, timers — is gone, as it
   would be for a real process restart; the stable checkpoint, the keychain
   and the replica's view number survive (BFT-PR keeps them on disk). The
   replica then runs proactive recovery to refresh keys and re-validate or
   re-fetch state from the quorum. *)
let restart t =
  Timer.cancel t.vc_timer;
  Timer.cancel t.resend_timer;
  Timer.cancel t.flush_timer;
  Timer.cancel t.state_timer;
  restore_snapshot t (Lazy.force t.stable_snapshot);
  t.log <- Log.create ~low:t.last_stable ~window:t.config.Config.log_window ();
  t.last_executed <- t.last_stable;
  t.last_committed <- t.last_stable;
  (* The audit trail is volatile too: slots finalized past the stable
     checkpoint are rolled back by the reboot and will execute again, so
     their entries must go with them — otherwise the chaos checker's
     unique-execution invariant would see the legitimate re-execution as
     a duplicate. *)
  t.exec_audit <- List.filter (fun (s, _) -> s <= t.last_stable) t.exec_audit;
  t.status <- Normal;
  t.target_view <- t.view;
  t.deferred_ro <- [];
  Queue.clear t.pending;
  Hashtbl.reset t.queued_ts;
  t.last_pp_seq <- t.last_stable;
  Hashtbl.reset t.request_store;
  Hashtbl.reset t.batch_store;
  Hashtbl.reset t.own_checkpoints;
  Hashtbl.reset t.checkpoint_snapshots;
  Hashtbl.reset t.checkpoint_msgs;
  Hashtbl.reset t.waiting;
  t.vc_attempts <- 0;
  Hashtbl.reset t.view_changes;
  t.last_nv <- None;
  t.resend_fast <- false;
  t.resend_stalls <- 0;
  t.resend_progress_mark <- t.last_stable;
  t.max_pp_seen <- t.last_stable;
  Hashtbl.reset t.vc_evidence;
  t.commit_backlog <- [];
  (* [start_recovery] below drops the votes and any page fetch. *)
  t.await_state <- None;
  t.state_attempts <- 0;
  t.replay_len <- 0;
  t.replay_pos <- 0;
  Metrics.incr t.metrics "restart";
  start_recovery t;
  ensure_resend_timer t

(* Audit accessor for the chaos invariant checker: the per-client cache of
   the latest executed request, restricted to entries backed by a commit
   certificate. A client that accepted a result for (client, ts) must agree
   with every correct replica's finalized cache entry for that timestamp. *)
let client_replies t =
  Hashtbl.fold
    (fun client ce acc ->
      match ce.cached_result with
      | Some result when ce.last_ts >= 0L && not ce.cached_tentative ->
        (client, ce.last_ts, Payload.digest result) :: acc
      | _ -> acc)
    t.client_table []
  |> List.sort compare

let create ~config ~transport ~replicas ~lookup_client ~service ~rng ~dispatcher
    ?(behavior = Behavior.Correct) () =
  let t =
    {
      config;
      transport;
      replicas;
      lookup_client;
      service;
      rng;
      behavior;
      replay_ring = Array.make 32 ("", 0);
      replay_len = 0;
      replay_pos = 0;
      metrics = Metrics.create ();
      id = Transport.principal transport;
      view = 0;
      status = Normal;
      target_view = 0;
      log = Log.create ~low:0 ~window:config.Config.log_window ();
      last_executed = 0;
      last_committed = 0;
      exec_audit = [];
      client_table = Hashtbl.create 64;
      deferred_ro = [];
      pending = Queue.create ();
      queued_ts = Hashtbl.create 64;
      last_pp_seq = 0;
      request_store = Hashtbl.create 128;
      batch_store = Hashtbl.create 128;
      last_stable = 0;
      stable_digest = Fingerprint.zero;
      stable_snapshot = Lazy.from_val Payload.empty;
      own_checkpoints = Hashtbl.create 8;
      checkpoint_snapshots = Hashtbl.create 8;
      checkpoint_msgs = Hashtbl.create 8;
      stable_certs = Hashtbl.create 8;
      waiting = Hashtbl.create 32;
      vc_timer = Timer.never;
      vc_attempts = 0;
      view_changes = Hashtbl.create 4;
      nv_sent = 0;
      last_nv = None;
      resend_timer = Timer.never;
      resend_fast = false;
      resend_stalls = 0;
      resend_progress_mark = 0;
      max_pp_seen = 0;
      vc_started_at = 0.0;
      vc_evidence = Hashtbl.create 8;
      commit_backlog = [];
      flush_timer = Timer.never;
      await_state = None;
      recovering = false;
      state_votes = Hashtbl.create 4;
      meta_votes = Hashtbl.create 4;
      fetch_ctx = None;
      state_timer = Timer.never;
      state_attempts = 0;
    }
  in
  (match behavior with
  | Behavior.Crash_at when_ ->
    Engine.schedule_at (engine t) when_ (fun () ->
        Network.set_up (Transport.network transport) (Transport.node transport) false)
  | Behavior.Forge_auth -> Transport.set_corrupt_auth transport true
  | _ -> ());
  (* Start the status heartbeat. *)
  ensure_resend_timer t;
  (* The initial state (seq 0) counts as a stable checkpoint. *)
  t.stable_digest <- state_digest t;
  t.stable_snapshot <- snapshot_payload t;
  Hashtbl.replace t.stable_certs 0 t.stable_digest;
  Dispatcher.register_default dispatcher (fun ~wire ~prefix_len ~size env ->
      handle_envelope t ~wire ~prefix_len ~size env);
  t
