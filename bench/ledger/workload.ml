(* The four workloads of the performance ledger. Each one deploys a fresh
   simulated system from the seed, drives load through the public client
   APIs only, records what the clients observed, and audits the end state.
   Why each workload exists is written down in README.md. *)

open Bft_core
module Engine = Bft_sim.Engine
module Network = Bft_net.Network
module Rng = Bft_util.Rng
module Stats = Bft_util.Stats
module Fingerprint = Bft_crypto.Fingerprint
module Rig = Bft_shard.Rig
module Router = Bft_shard.Router
module Proxy = Bft_shard.Proxy
module Txn = Bft_shard.Txn
module Kv = Bft_services.Kv_store
module Openloop = Bft_workloads.Openloop

type kind = Null_small | Null_4k | Kv_mixed | Primary_crash

let kinds = [ Null_small; Null_4k; Kv_mixed; Primary_crash ]

let name = function
  | Null_small -> "null-small"
  | Null_4k -> "null-4k"
  | Kv_mixed -> "kv-mixed"
  | Primary_crash -> "primary-crash"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) kinds

(* Virtual-time shape of one run. [warmup] is excluded from every metric;
   [window] is what a timed repetition measures and [traced_window] what
   the traced run replays. The windows are sized so one timed repetition
   costs about two wall seconds on a 2-core x86-64 host. *)
type shape = {
  warmup : float;
  window : float;
  traced_window : float;
  min_samples : int;  (** a run with fewer latency samples fails *)
  rate : float;  (** primary-crash: arrivals per virtual second *)
}

let shape ~tiny kind =
  let s warmup window traced_window =
    { warmup; window; traced_window; min_samples = (if tiny then 100 else 1000); rate = 7000.0 }
  in
  match (tiny, kind) with
  | false, Null_small -> s 1.0 3.0 0.5
  | false, Null_4k -> s 1.0 10.0 2.0
  | false, Kv_mixed -> s 1.0 1.0 0.3
  | false, Primary_crash -> s 1.0 6.0 6.0
  (* Smoke shapes for the build's test rule: just long enough for every
     code path to run, the crash's view change and recovery included. *)
  | true, Primary_crash -> { (s 0.2 2.5 2.5) with rate = 1000.0 }
  | true, _ -> s 0.1 0.1 0.1

(* --- what the clients observed ------------------------------------------ *)

(* Filled only while [measuring]: the warmup is excluded from everything. *)
type observed = {
  mutable measuring : bool;
  latency : Stats.t;  (** virtual seconds; open loop: from the due time *)
  mutable ok : int;
  mutable failed : int;  (** rejected, aborted or wrong-typed results *)
  last_done : float array;  (** per replica group: its latest completion *)
  gaps : Stats.t;  (** virtual s between consecutive completions of a group *)
  mutable backlog_peak : int;  (** open loop: arrivals waiting for a stub *)
  get_lat : Stats.t;
  put_lat : Stats.t;
  txn_lat : Stats.t;
  mutable gets_fast : int;  (** Gets answered without a retransmission *)
  mutable txn_committed : int;
  mutable txn_aborted : int;
  group_ops : int array;  (** completions per replica group *)
  mutable violations : string list;  (** audit failures seen by clients *)
}

let exact () = Stats.create ~capacity:max_int ()

let observed groups =
  {
    measuring = false;
    latency = exact ();
    ok = 0;
    failed = 0;
    last_done = Array.make groups 0.0;
    gaps = exact ();
    backlog_peak = 0;
    get_lat = exact ();
    put_lat = exact ();
    txn_lat = exact ();
    gets_fast = 0;
    txn_committed = 0;
    txn_aborted = 0;
    group_ops = Array.make groups 0;
    violations = [];
  }

let violation obs msg =
  if List.length obs.violations < 10 then obs.violations <- msg :: obs.violations

(* One operation served by replica groups [groups] finished at virtual
   time [now]. Gaps are kept per group: with two shards, one shard's stall
   is hidden in the merged completion stream by the other's completions. *)
let finish obs ~now ~groups ~latency ~ok =
  if obs.measuring then
    if ok then begin
      obs.ok <- obs.ok + 1;
      Stats.add obs.latency latency;
      List.iter
        (fun g ->
          Stats.add obs.gaps (now -. obs.last_done.(g));
          obs.last_done.(g) <- now;
          obs.group_ops.(g) <- obs.group_ops.(g) + 1)
        groups
    end
    else obs.failed <- obs.failed + 1

(* --- a deployed workload ------------------------------------------------ *)

type t = {
  kind : kind;
  shape : shape;
  engine : Engine.t;
  network : Network.t;
  groups : Cluster.t array;
  obs : observed;
  txns : Txn.t list;
  unresolved : unit -> int;  (** open loop: window arrivals not yet answered *)
  unavail_ms : unit -> float;  (** see {!stall_ms} and {!deploy_crash} *)
  end_audit : unit -> unit;  (** workload-specific final checks *)
}

let begin_window t =
  t.obs.measuring <- true;
  Array.fill t.obs.last_done 0 (Array.length t.obs.last_done) (Engine.now t.engine)

(* The gap left open when the window ends is not counted: after an open
   loop's backlog drains there is nothing left to serve. A crash the
   system never recovers from fails primary-crash's audit instead. *)
let end_window t = t.obs.measuring <- false

(* Time without service on a fault-free workload, in ms: the 99.9th
   percentile of the gaps between consecutive completions of one group,
   its typical worst stall. The single longest gap is an extreme value
   that moves by 10% from one seed to the next. *)
let stall_ms obs () = 1e3 *. Stats.percentile obs.gaps 99.9

let clients t = Array.to_list t.groups |> List.concat_map Cluster.clients

let config = Config.make ~f:1 ()

let client_machines = 5

(* Start times are staggered over the first 100 ms: real benchmark clients
   never fire in the same microsecond. *)
let stagger rng = Rng.float rng 0.1

(* --- null-small / null-4k: closed loop against the null service --------- *)

let null_clients = 24

let deploy_null ~seed ~trace ~shape kind =
  let arg = match kind with Null_4k -> 4096 | _ -> 0 in
  let res = 0 in
  let cluster =
    Cluster.create ~seed ~client_machines ~trace ~config
      ~service:(fun _ -> Service.null ())
      ()
  in
  let engine = Cluster.engine cluster in
  let obs = observed 1 in
  let op = Service.null_op ~read_only:false ~arg_size:arg ~result_size:res in
  let clients = List.init null_clients (fun _ -> Cluster.add_client cluster) in
  let rng = Cluster.rng cluster "ledger.stagger" in
  List.iter
    (fun c ->
      let rec loop () =
        Client.invoke c op (fun o ->
            if Payload.size o.Client.result <> res then
              violation obs
                (Printf.sprintf "null result of %d bytes, %d requested"
                   (Payload.size o.Client.result) res);
            finish obs ~now:(Engine.now engine) ~groups:[ 0 ] ~latency:o.Client.latency
              ~ok:(not o.Client.rejected);
            loop ())
      in
      Engine.schedule engine ~delay:(stagger rng) loop)
    clients;
  {
    kind;
    shape;
    engine;
    network = Cluster.network cluster;
    groups = [| cluster |];
    obs;
    txns = [];
    unresolved = (fun () -> 0);
    unavail_ms = stall_ms obs;
    end_audit = ignore;
  }

(* --- kv-mixed: two shards, Get / Put / cross-shard transactions --------- *)

let kv_groups = 2

(* Closed-loop drivers, each with its own Proxy and Txn handle: as many
   clients as the null workloads' knee. *)
let kv_drivers = 24

let kv_keys = 4096

(* Share of Gets and Puts aimed at group 0's keys. With a perfectly even
   split the two groups checkpoint at the same rate and their checkpoint
   cycles stay locked at an offset the seed picks; transactions need both
   groups, so how often they meet a checkpoint stall, and with it the
   latency tail, would depend on the seed (p99 moves by 25%). At 60/40 the
   cycles drift past each other within a window. *)
let group0_share = 0.6

let value_bytes = 1024

let key i = Printf.sprintf "k%04d" i

(* Values embed their key, writer and write number, so a Get can be
   checked against the writes actually issued for that key. The filler
   holds no '|', so the header is everything up to the last one. *)
let header ~key ~writer ~seq = Printf.sprintf "%s|%s|%d|" key writer seq

let value_of header = header ^ String.make (value_bytes - String.length header) '.'

let header_of value =
  match String.rindex_opt value '|' with
  | Some i -> String.sub value 0 (i + 1)
  | None -> value

(* Every replica of a group starts from the same 1 KB binding for each key
   the group owns. *)
let preload_kv () =
  let router = Router.create ~groups:kv_groups () in
  Array.init kv_groups (fun g ->
      Array.init config.Config.n (fun _ ->
          let store = Kv.create_store () in
          let svc = Kv.service_of_store store in
          for i = 0 to kv_keys - 1 do
            let k = key i in
            if Router.group_of_key router k = g then
              ignore
                (svc.Service.execute ~client:0
                   ~op:(Kv.op_payload (Kv.Put (k, value_of (header ~key:k ~writer:"pre" ~seq:0))))
                  : Payload.t * Service.undo)
          done;
          svc.Service.checkpoint_taken ();
          svc))

let deploy_kv ~seed ~trace ~shape ~services =
  let rig =
    Rig.create ~seed ~client_machines ~trace ~groups:kv_groups ~config
      ~service:(fun ~group r -> services.(group).(r))
      ()
  in
  let router = Rig.router rig in
  if Router.mapping router <> Router.mapping (Router.create ~groups:kv_groups ())
  then failwith "kv-mixed: preload router disagrees with the rig's";
  let engine = Rig.engine rig in
  let obs = observed kv_groups in
  (* Headers of every value ever written, preload included. *)
  let written = Hashtbl.create (2 * kv_keys) in
  for i = 0 to kv_keys - 1 do
    Hashtbl.replace written (header ~key:(key i) ~writer:"pre" ~seq:0) ()
  done;
  let by_group keys =
    Array.init kv_groups (fun g ->
        Array.of_list (List.filter (fun k -> Router.group_of_key router k = g) keys))
  in
  let all_keys = by_group (List.init kv_keys key) in
  let stagger_rng = Rig.rng rig "ledger.stagger" in
  let txns =
    List.init kv_drivers (fun d ->
        let proxy = Proxy.create rig in
        let txn = Txn.create rig in
        let rng = Rig.rng rig (Printf.sprintf "ledger.kv%d" d) in
        (* Driver [d] is the only writer of the keys congruent to [d], so
           writes never contend for 2PC locks and no operation aborts. *)
        let owned =
          by_group
            (List.init ((kv_keys - d + kv_drivers - 1) / kv_drivers) (fun j ->
                 key ((j * kv_drivers) + d)))
        in
        let pick keys =
          let pool = keys.(if Rng.float rng 1.0 < group0_share then 0 else 1) in
          pool.(Rng.int rng (Array.length pool))
        in
        let writer = Printf.sprintf "d%d" d in
        let seq = ref 0 in
        let next_value k =
          incr seq;
          let h = header ~key:k ~writer ~seq:!seq in
          Hashtbl.replace written h ();
          value_of h
        in
        let rec loop () =
          let started = Engine.now engine in
          let done_ ~lat ~groups ~ok =
            let now = Engine.now engine in
            if obs.measuring && ok then Stats.add lat (now -. started);
            finish obs ~now ~groups ~latency:(now -. started) ~ok;
            loop ()
          in
          let u = Rng.float rng 1.0 in
          if u < 0.5 then begin
            let k = pick all_keys in
            Proxy.invoke proxy (Kv.Get k) (fun o ->
                (match o.Proxy.result with
                | Kv.Value (Some v)
                  when Hashtbl.mem written (header_of v)
                       && String.starts_with ~prefix:(k ^ "|") v ->
                  ()
                | Kv.Value (Some v) ->
                  violation obs
                    (Printf.sprintf "Get %s returned a value never written for it (%s)"
                       k (header_of v))
                | _ -> violation obs (Printf.sprintf "Get %s returned no value" k));
                if obs.measuring && o.Proxy.raw.Client.retries = 0 then
                  obs.gets_fast <- obs.gets_fast + 1;
                done_ ~lat:obs.get_lat ~groups:[ o.Proxy.group ]
                  ~ok:(not o.Proxy.raw.Client.rejected))
          end
          else if u < 0.9 then begin
            let k = pick owned in
            Proxy.invoke proxy (Kv.Put (k, next_value k)) (fun o ->
                done_ ~lat:obs.put_lat ~groups:[ o.Proxy.group ]
                  ~ok:(o.Proxy.result = Kv.Stored))
          end
          else begin
            (* One owned key in each group: a cross-shard 2PC. *)
            let of_group g = owned.(g).(Rng.int rng (Array.length owned.(g))) in
            let k1 = of_group 0 in
            let k2 = of_group 1 in
            Txn.exec txn
              [ Kv.Put (k1, next_value k1); Kv.Put (k2, next_value k2) ]
              (fun outcome ->
                let ok = outcome = Txn.Committed in
                if obs.measuring then
                  if ok then obs.txn_committed <- obs.txn_committed + 1
                  else obs.txn_aborted <- obs.txn_aborted + 1;
                done_ ~lat:obs.txn_lat ~groups:[ 0; 1 ] ~ok)
          end
        in
        Engine.schedule engine ~delay:(stagger stagger_rng) loop;
        txn)
  in
  {
    kind = Kv_mixed;
    shape;
    engine;
    network = Rig.network rig;
    groups = Rig.clusters rig;
    obs;
    txns;
    unresolved = (fun () -> 0);
    unavail_ms = stall_ms obs;
    end_audit = ignore;
  }

(* --- primary-crash: open-loop Poisson arrivals through a primary crash -- *)

let crash_stubs = 512

(* The crash lands a fifth of the way into the window; arrivals stop at
   seven tenths, leaving the rest for the backlog to drain. *)
let crash_time shape = shape.warmup +. (0.2 *. shape.window)

let arrivals_end shape = shape.warmup +. (0.7 *. shape.window)

let deploy_crash ~seed ~trace ~shape =
  let cluster =
    Cluster.create ~seed ~client_machines ~trace ~config
      ~service:(fun _ -> Service.null ())
      ()
  in
  let engine = Cluster.engine cluster in
  let obs = observed 1 in
  let op = Service.null_op ~read_only:false ~arg_size:0 ~result_size:0 in
  let free = Queue.create () in
  for _ = 1 to crash_stubs do
    Queue.add (Cluster.add_client cluster) free
  done;
  (* Arrivals waiting for a free stub, with their due times: latency runs
     from the due time, so waiting for a stub during the outage counts. *)
  let backlog = Queue.create () in
  let due_in_window = ref 0 in
  let answered_in_window = ref 0 in
  let crash_at = crash_time shape in
  (* Service is back when a request due after the crash is answered:
     nothing issued after it can commit before a new primary is in place.
     (The longest gap between completions is no measure of the outage:
     retransmissions answered from the reply cache can split it.) *)
  let recovered_at = ref infinity in
  let rec pump () =
    if (not (Queue.is_empty free)) && not (Queue.is_empty backlog) then begin
      let stub = Queue.pop free in
      let due = Queue.pop backlog in
      Client.invoke stub op (fun o ->
          let now = Engine.now engine in
          if due >= shape.warmup then begin
            incr answered_in_window;
            if due > crash_at && not o.Client.rejected then
              recovered_at := Float.min !recovered_at now;
            finish obs ~now ~groups:[ 0 ] ~latency:(now -. due) ~ok:(not o.Client.rejected)
          end;
          Queue.add stub free;
          pump ());
      pump ()
    end
  in
  let rng = Cluster.rng cluster "ledger.arrivals" in
  let process = Openloop.Poisson { rate = shape.rate } in
  let stop = arrivals_end shape in
  let rec arrive_from t =
    let due = Openloop.next_arrival rng process ~now:t in
    if due < stop then
      Engine.schedule_at engine due (fun () ->
          if due >= shape.warmup then incr due_in_window;
          Queue.add due backlog;
          if obs.measuring then
            obs.backlog_peak <- max obs.backlog_peak (Queue.length backlog);
          pump ();
          arrive_from due)
  in
  arrive_from 0.0;
  Engine.schedule_at engine crash_at (fun () -> Cluster.crash_replica cluster 0);
  let end_audit () =
    let live = List.tl (Array.to_list (Cluster.replicas cluster)) in
    if not (List.for_all (fun r -> Replica.view r > 0) live) then
      violation obs "primary-crash: a live replica is still in view 0";
    if !recovered_at = infinity then
      violation obs "primary-crash: no request due after the crash was answered"
  in
  {
    kind = Primary_crash;
    shape;
    engine;
    network = Cluster.network cluster;
    groups = [| cluster |];
    obs;
    txns = [];
    unresolved = (fun () -> !due_in_window - !answered_in_window);
    unavail_ms = (fun () -> 1e3 *. (!recovered_at -. crash_at));
    end_audit;
  }

(* --- set-up and audits --------------------------------------------------- *)

(* The set-up's preload phase, kept apart from {!deploy} so it is timed on
   its own: kv-mixed's replica services, [None] for the other workloads. *)
let preload = function Kv_mixed -> Some (preload_kv ()) | _ -> None

let deploy ?(trace = Bft_trace.Trace.nil) ~preloaded ~seed ~shape kind =
  match (kind, preloaded) with
  | (Null_small | Null_4k), _ -> deploy_null ~seed ~trace ~shape kind
  | Kv_mixed, Some services -> deploy_kv ~seed ~trace ~shape ~services
  | Kv_mixed, None -> invalid_arg "Workload.deploy: kv-mixed needs its preload"
  | Primary_crash, _ -> deploy_crash ~seed ~trace ~shape

(* Correct replicas of a group agree on the batch executed at every
   sequence number they both executed, and on the reply they cached for
   every (client, timestamp) they both answered. *)
let audit_group obs g cluster =
  let replicas = Cluster.correct_replicas cluster in
  let by_seq = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      List.iter
        (fun (seq, d) ->
          match Hashtbl.find_opt by_seq seq with
          | None -> Hashtbl.replace by_seq seq d
          | Some d' ->
            if not (Fingerprint.equal d d') then
              violation obs
                (Printf.sprintf "group %d: replicas disagree at seqno %d" g seq))
        (Replica.executed_digests r))
    replicas;
  let replies = Hashtbl.create 256 in
  List.iter
    (fun r ->
      List.iter
        (fun (c, ts, d) ->
          match Hashtbl.find_opt replies (c, ts) with
          | None -> Hashtbl.replace replies (c, ts) d
          | Some d' ->
            if not (Fingerprint.equal d d') then
              violation obs
                (Printf.sprintf "group %d: replies to client %d differ at ts %Ld" g c ts))
        (Replica.client_replies r))
    replicas

let audit t =
  Array.iteri (audit_group t.obs) t.groups;
  t.end_audit ();
  if Stats.count t.obs.latency < t.shape.min_samples then
    violation t.obs
      (Printf.sprintf "%d latency samples, fewer than %d" (Stats.count t.obs.latency)
         t.shape.min_samples);
  List.rev t.obs.violations
