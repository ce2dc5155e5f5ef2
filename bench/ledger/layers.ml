(* Per-layer attribution from outside the program: public counters read
   before and after a window ([snapshot] / [counters]), the protocol trace
   of a traced replay ([Traced]), and probes that time one public function
   after the window ([probes]). Layers are named after the library
   directories (sim, net, crypto, codec, replica, client, kv, shard,
   instr, gc); README.md maps each metric to the end-to-end metric it
   should move. *)

open Bft_core
module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Network = Bft_net.Network
module Tally = Bft_crypto.Tally
module Trace = Bft_trace.Trace
module Timeline = Bft_trace.Timeline
module Stats = Bft_util.Stats
module Rng = Bft_util.Rng
module Txn = Bft_shard.Txn
module Kv = Bft_services.Kv_store
module W = Workload

(* --- counters read around the window ------------------------------------- *)

type snapshot = {
  tally : Tally.snapshot;
  sent : int;
  delivered : int;
  dropped : int;
  bytes : int;
  cpu : float array array;  (** per replica, busy seconds per category *)
  batches : (int * float) array;  (** per replica: batches sent, requests in them *)
  checkpoints : int;  (** checkpoints taken, summed over replicas *)
  views : int array;  (** per group: highest view of a live replica *)
  counter_bumps : int;  (** every [Metrics] counter, replicas and clients *)
  retransmits : int;
  recoveries : int;
  gc : Gc.stat;
}

let replicas (w : W.t) = Array.concat (Array.to_list (Array.map Cluster.replicas w.groups))

(* The replica machines of every group, in {!replicas} order. *)
let replica_cpus (w : W.t) =
  Array.concat
    (Array.to_list
       (Array.map
          (fun c ->
            Array.init (Array.length (Cluster.replicas c)) (fun i ->
                Network.node_cpu w.network (Cluster.replica_node c i)))
          w.groups))

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let snapshot (w : W.t) =
  let reps = replicas w in
  let clients = W.clients w in
  let count m name = Metrics.count m name in
  let counters m = sum snd (Metrics.counters m) in
  {
    tally = Tally.snapshot ();
    sent = Network.sent_datagrams w.network;
    delivered = Network.delivered_datagrams w.network;
    dropped = Network.dropped_datagrams w.network;
    bytes = Network.bytes_on_wire w.network;
    cpu = Array.map Cpu.busy_seconds (replica_cpus w);
    batches =
      Array.map
        (fun r ->
          match Metrics.samples (Replica.metrics r) "batch.size" with
          | Some s -> (Stats.count s, Stats.total s)
          | None -> (0, 0.0))
        reps;
    checkpoints = Array.fold_left (fun acc r -> acc + count (Replica.metrics r) "checkpoint.taken") 0 reps;
    views =
      Array.map
        (fun c ->
          List.fold_left (fun acc r -> max acc (Replica.view r)) 0
            (Array.to_list (Cluster.replicas c)))
        w.groups;
    counter_bumps =
      Array.fold_left (fun acc r -> acc + counters (Replica.metrics r)) 0 reps
      + sum (fun c -> counters (Client.metrics c)) clients;
    retransmits = sum (fun c -> count (Client.metrics c) "ops.retransmitted") clients;
    recoveries = sum Txn.recoveries w.txns;
    gc = Gc.quick_stat ();
  }

(* Index of the busiest replica of each group over the window: the
   primary in steady state, the machine that bounds throughput. *)
let busiest_per_group (w : W.t) ~before ~after =
  let n = Array.length (Cluster.replicas w.groups.(0)) in
  let busy i = Array.fold_left ( +. ) 0.0 after.cpu.(i) -. Array.fold_left ( +. ) 0.0 before.cpu.(i) in
  Array.to_list
    (Array.mapi
       (fun g _ ->
         let best = ref (g * n) in
         for i = g * n to (g * n) + n - 1 do
           if busy i > busy !best then best := i
         done;
         !best)
       w.groups)

let percentile_us s p = if Stats.count s = 0 then 0.0 else Stats.percentile s p *. 1e6

(* [U] metrics of one window; [window] is its virtual length. *)
let counters (w : W.t) ~before ~after ~window ~pending_peak =
  let obs = w.obs in
  let ops = float_of_int (max 1 obs.ok) in
  let per_op x = float_of_int x /. ops in
  let per_kop x = 1000.0 *. float_of_int x /. ops in
  let busiest = busiest_per_group w ~before ~after in
  let cat_us c =
    let i = Cpu.category_index c in
    1e6
    *. List.fold_left (fun acc r -> acc +. after.cpu.(r).(i) -. before.cpu.(r).(i)) 0.0 busiest
    /. ops
  in
  let util =
    List.fold_left
      (fun acc r ->
        let busy a = Array.fold_left ( +. ) 0.0 a.cpu.(r) in
        Float.max acc ((busy after -. busy before) /. window))
      0.0 busiest
  in
  (* Mean batch of the replica that sent the most batches in each group. *)
  let batch_size =
    let sent = ref 0 and requests = ref 0.0 in
    Array.iteri
      (fun g _ ->
        let n = Array.length (Cluster.replicas w.groups.(g)) in
        let best = ref (0, 0.0) in
        for i = g * n to (g * n) + n - 1 do
          let c = fst after.batches.(i) - fst before.batches.(i) in
          if c > fst !best then best := (c, snd after.batches.(i) -. snd before.batches.(i))
        done;
        sent := !sent + fst !best;
        requests := !requests +. snd !best)
      w.groups;
    if !sent = 0 then 0.0 else !requests /. float_of_int !sent
  in
  let n = Array.length (Cluster.replicas w.groups.(0)) in
  let tally = Tally.diff after.tally before.tally in
  let view_changes =
    Array.fold_left ( + ) 0 (Array.mapi (fun g v -> v - before.views.(g)) after.views)
  in
  let group_skew =
    let counts = Array.map float_of_int obs.group_ops in
    let mean = Array.fold_left ( +. ) 0.0 counts /. float_of_int (Array.length counts) in
    if mean = 0.0 then 1.0 else Array.fold_left Float.max 0.0 counts /. mean
  in
  let txns = obs.txn_committed + obs.txn_aborted in
  let state_bytes =
    Array.fold_left
      (fun acc c ->
        let svc = Replica.service (Cluster.replica c 0) in
        acc + Payload.size (svc.Service.snapshot ()))
      0 w.groups
  in
  let gets = Stats.count obs.get_lat in
  [
    ("sim.pending_peak", float_of_int pending_peak);
    ("sim.primary_util", util);
    ("sim.cpu_us_per_op.mac_gen", cat_us Cpu.Mac_gen);
    ("sim.cpu_us_per_op.mac_verify", cat_us Cpu.Mac_verify);
    ("sim.cpu_us_per_op.digest", cat_us Cpu.Digest);
    ("sim.cpu_us_per_op.encode", cat_us Cpu.Encode);
    ("sim.cpu_us_per_op.decode", cat_us Cpu.Decode);
    ("sim.cpu_us_per_op.exec", cat_us Cpu.Exec);
    ("sim.cpu_us_per_op.other", cat_us Cpu.Other);
    ("net.datagrams_per_op", per_op (after.sent - before.sent));
    ("net.bytes_per_op", per_op (after.bytes - before.bytes));
    ("net.drops_per_kop", per_kop (after.dropped - before.dropped));
    ("crypto.mac_gen_per_op", per_op tally.Tally.mac_gen_ops);
    ("crypto.mac_verify_per_op", per_op tally.Tally.mac_verify_ops);
    ("crypto.digest_bytes_per_op", per_op tally.Tally.digest_bytes);
    ("replica.batch_size", batch_size);
    ( "replica.checkpoints_per_kop",
      per_kop (after.checkpoints - before.checkpoints) /. float_of_int n );
    ("replica.view_changes", float_of_int view_changes);
    ("client.retransmits_per_kop", per_kop (after.retransmits - before.retransmits));
    ("client.backlog_peak", float_of_int obs.backlog_peak);
    ( "client.ro_fastpath_frac",
      if gets = 0 then 0.0 else float_of_int obs.gets_fast /. float_of_int gets );
    ("client.get_p50_us", percentile_us obs.get_lat 50.0);
    ("client.get_p99_us", percentile_us obs.get_lat 99.0);
    ("client.put_p50_us", percentile_us obs.put_lat 50.0);
    ("client.put_p99_us", percentile_us obs.put_lat 99.0);
    ("client.txn_p50_us", percentile_us obs.txn_lat 50.0);
    ("client.txn_p99_us", percentile_us obs.txn_lat 99.0);
    ("kv.state_bytes", float_of_int state_bytes);
    ( "shard.txn_commit_frac",
      if txns = 0 then 0.0 else float_of_int obs.txn_committed /. float_of_int txns );
    ("shard.lock_recoveries", float_of_int (after.recoveries - before.recoveries));
    ("shard.group_skew", group_skew);
    ("instr.counter_bumps_per_op", per_op (after.counter_bumps - before.counter_bumps));
    ( "gc.alloc_words_per_op",
      (after.gc.Gc.minor_words +. after.gc.Gc.major_words -. after.gc.Gc.promoted_words
      -. (before.gc.Gc.minor_words +. before.gc.Gc.major_words -. before.gc.Gc.promoted_words))
      /. ops );
    ("gc.promoted_words_per_op", (after.gc.Gc.promoted_words -. before.gc.Gc.promoted_words) /. ops);
    ( "gc.major_per_kop",
      per_kop (after.gc.Gc.major_collections - before.gc.Gc.major_collections) );
  ]

(* --- the traced replay ------------------------------------------------------ *)

(* The trace ring is drained after every 10 ms slice, so it only has to
   hold one slice of events; the phase boundaries are kept for the
   timeline fold and everything else is only counted. *)
module Traced = struct
  type t = {
    trace : Trace.t;
    mutable events : int;  (** engine events fired ([Sim_fire]) *)
    mutable overflowed : int;  (** events lost to ring overflow *)
    mutable phases : Trace.event list;  (** newest first *)
  }

  let create () =
    { trace = Trace.create ~capacity:(1 lsl 18) ~sim_events:true (); events = 0; overflowed = 0; phases = [] }

  let drain t ~keep =
    if keep then begin
      t.overflowed <- t.overflowed + Trace.dropped t.trace;
      Trace.iter t.trace (fun e ->
          match e.Trace.kind with
          | Trace.Sim_fire -> t.events <- t.events + 1
          | Trace.Client_send | Trace.Request_recv | Trace.Exec_request | Trace.Reply_sent
          | Trace.Client_deliver ->
            t.phases <- e :: t.phases
          | _ -> ())
    end;
    Trace.clear t.trace

  let metrics t ~ops ~window_ns =
    let tl = Timeline.of_events (List.rev t.phases) in
    let median s = if Stats.count s = 0 then 0.0 else Stats.median s *. 1e6 in
    [
      ("sim.events_per_op", float_of_int t.events /. float_of_int (max 1 ops));
      ("sim.ns_per_event", window_ns /. float_of_int (max 1 t.events));
      ("replica.phase_us.client_to_primary", median tl.Timeline.client_to_primary);
      ("replica.phase_us.ordering", median tl.Timeline.ordering);
      ("replica.phase_us.execution", median tl.Timeline.execution);
      ("replica.phase_us.reply", median tl.Timeline.reply);
    ]
end

(* --- GC phases from the runtime's own event ring ---------------------------- *)

module Gc_phases = struct
  let cursor = lazy (Runtime_events.start (); Runtime_events.create_cursor None)

  let depth = ref 0

  let began = ref 0L

  let total_ns = ref 0L

  (* Minor collections and major slices, outermost only: a major slice
     run from inside a minor collection is not counted twice. *)
  let tracked = function Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true | _ -> false

  let callbacks ~parent =
    let runtime_begin _ ts phase =
      if tracked phase then begin
        if !depth = 0 then began := Runtime_events.Timestamp.to_int64 ts;
        incr depth
      end
    in
    let runtime_end _ ts phase =
      if tracked phase && !depth > 0 then begin
        decr depth;
        if !depth = 0 then begin
          let stop = Runtime_events.Timestamp.to_int64 ts in
          total_ns := Int64.add !total_ns (Int64.sub stop !began);
          if !Spans.on then
            Spans.add ~name:(Runtime_events.runtime_phase_name phase) ~parent
              ~start_ns:!began ~stop_ns:stop
        end
      end
    in
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ()

  (* Consume pending GC events, crediting them to span [parent]. *)
  let poll ~parent =
    ignore (Runtime_events.read_poll (Lazy.force cursor) (callbacks ~parent) None : int)

  let reset () = total_ns := 0L
end

(* --- probes: one public function, timed after the window ------------------ *)

(* Mean ns per call of [f]: the median of 7 batches, each sized to take
   about a millisecond. *)
let time_ns f =
  let batch k =
    let t0 = Spans.now_ns () in
    for _ = 1 to k do
      f ()
    done;
    Int64.to_float (Int64.sub (Spans.now_ns ()) t0)
  in
  let rec size k = if k >= 1 lsl 20 || batch k >= 1e6 then k else size (2 * k) in
  let k = size 1 in
  let runs = List.init 7 (fun _ -> batch k /. float_of_int k) in
  List.nth (List.sort compare runs) 3

(* A typical operation of this workload, and its result. *)
let workload_op (w : W.t) =
  match w.kind with
  | W.Kv_mixed ->
    let k = W.key 0 in
    ( Kv.op_payload (Kv.Put (k, W.value_of (W.header ~key:k ~writer:"probe" ~seq:1))),
      Kv.result_payload Kv.Stored )
  | W.Null_4k -> (Service.null_op ~read_only:false ~arg_size:4096 ~result_size:0, Payload.empty)
  | W.Null_small | W.Primary_crash ->
    (Service.null_op ~read_only:false ~arg_size:0 ~result_size:0, Payload.empty)

(* The request and reply envelopes that operation travels in,
   authenticated like a client's request to every replica. *)
let envelopes (w : W.t) =
  let n = Array.length (Cluster.replicas w.groups.(0)) in
  let op, result = workload_op w in
  let auth = { Bft_crypto.Auth.nonce = 1L; entries = List.init n (fun i -> (i, String.make 8 'm')) } in
  let request =
    Message.Request
      { Message.client = n; timestamp = 1L; read_only = false; full_replies = false; replier = 0; op }
  in
  let reply =
    Message.Reply
      {
        Message.view = 0;
        timestamp = 1L;
        client = n;
        replica = 0;
        tentative = true;
        epoch = 0;
        body = Message.Full_result result;
      }
  in
  List.map (fun msg -> { Message.sender = 0; msg; commits = []; auth }) [ request; reply ]

(* The primary of group 0's latest view. *)
let primary (w : W.t) =
  let rs = Array.to_list (Cluster.replicas w.groups.(0)) in
  let view = List.fold_left (fun acc r -> max acc (Replica.view r)) 0 rs in
  match List.find_opt (fun r -> Replica.view r = view && Replica.is_primary r) rs with
  | Some r -> r
  | None -> List.hd rs

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* [P] metrics, plus the shares of the window's wall time they imply. *)
let probes (w : W.t) ~before ~after ~window_ns ~pending_peak =
  let probe layer f = Spans.with_ ("probe." ^ layer) f in
  let tally = Tally.diff after.tally before.tally in
  let sched_step_ns =
    probe "sim" (fun () ->
        (* Schedule and fire one event on a queue as deep as the run's. *)
        let e = Engine.create () in
        let rng = Rng.of_int 7 in
        for _ = 1 to max 1 pending_peak do
          Engine.schedule e ~delay:(Rng.float rng 1.0) ignore
        done;
        time_ns (fun () ->
            Engine.schedule e ~delay:(Rng.float rng 1.0) ignore;
            ignore (Engine.step e : bool)))
  in
  let mac_ns, md5_ns_per_kb =
    probe "crypto" (fun () ->
        let avg bytes ops = if ops = 0 then 64 else max 1 (bytes / ops) in
        let mac_msg = String.make (avg tally.Tally.mac_gen_bytes tally.Tally.mac_gen_ops) 'a' in
        let digest_size = avg tally.Tally.digest_bytes tally.Tally.digest_ops in
        let digest_msg = String.make digest_size 'd' in
        let mac = time_ns (fun () -> ignore (Bft_crypto.Mac.compute ~key:"0123456789abcdef" ~nonce:1L mac_msg : string)) in
        let md5 = time_ns (fun () -> ignore (Bft_crypto.Md5.digest digest_msg : string)) in
        (mac, md5 *. 1024.0 /. float_of_int digest_size))
  in
  let encode_ns, decode_ns =
    probe "codec" (fun () ->
        let envs = envelopes w in
        let wires = List.map Message.encode_envelope envs in
        ( mean (List.map (fun env -> time_ns (fun () -> ignore (Message.encode_envelope env : string))) envs),
          mean
            (List.map (fun wire -> time_ns (fun () -> ignore (Message.decode_envelope wire : Message.envelope))) wires) ))
  in
  let digest_ms, exec_ns =
    probe "kv" (fun () ->
        let svc = Replica.service (Cluster.replica w.groups.(0) 0) in
        let op = fst (workload_op w) in
        ( time_ns (fun () -> ignore (svc.Service.state_digest () : Bft_crypto.Fingerprint.t)) /. 1e6,
          time_ns (fun () ->
              let _, undo = svc.Service.execute ~client:0 ~op in
              undo ()) ))
  in
  let incr_ns =
    probe "instr" (fun () ->
        let names = Array.of_list (List.map fst (Metrics.counters (Replica.metrics (primary w)))) in
        let m = Metrics.create () in
        let i = ref 0 in
        if Array.length names = 0 then 0.0
        else
          time_ns (fun () ->
              Metrics.incr m names.(!i);
              i := (!i + 1) mod Array.length names))
  in
  let share ns = ns /. window_ns in
  [
    ("sim.sched_step_ns", sched_step_ns);
    ("crypto.mac_ns", mac_ns);
    ("crypto.md5_ns_per_kb", md5_ns_per_kb);
    ( "crypto.wall_share",
      share
        ((float_of_int (tally.Tally.mac_gen_ops + tally.Tally.mac_verify_ops) *. mac_ns)
        +. (float_of_int tally.Tally.digest_bytes *. md5_ns_per_kb /. 1024.0)) );
    ("codec.encode_ns", encode_ns);
    ("codec.decode_ns", decode_ns);
    ( "codec.wall_share",
      share
        ((float_of_int (after.sent - before.sent) *. encode_ns)
        +. (float_of_int (after.delivered - before.delivered) *. decode_ns)) );
    ("kv.state_digest_ms", digest_ms);
    ("kv.exec_ns", exec_ns);
    ("instr.metrics_incr_ns", incr_ns);
  ]

(* The unreplicated ceiling of the paper's Figure 4 (NO-REP, 0/0, 24
   clients): a reference no change to the replicated path should move. *)
let norep_reference ~seed ~tiny =
  Spans.with_ "probe.ref" (fun () ->
      let warmup, window = if tiny then (0.1, 0.1) else (0.5, 1.0) in
      let r =
        Bft_workloads.Microbench.norep_throughput ~seed ~warmup ~window ~retry:true ~arg:0
          ~res:0 ~clients:24 ()
      in
      [ ("ref.norep_virt_ops_s", r.Bft_workloads.Microbench.ops_per_sec) ])
