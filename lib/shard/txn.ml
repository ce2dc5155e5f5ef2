module Client = Bft_core.Client
module Cluster = Bft_core.Cluster
module Config = Bft_core.Config
module Engine = Bft_sim.Engine
module Rng = Bft_util.Rng
module Kv = Bft_services.Kv_store

(* Cross-shard two-phase commit, Percolator-style.

   The coordinator (this handle) is an unreplicated client; the protocol
   survives its crash because every decision lives in some group's PBFT
   log, never in coordinator memory:

   - PREPARE is replicated at each participant group and acquires per-key
     locks inside the KV service.
   - The commit point is a replicated [Commit txn] operation serialized by
     the {e decision group} (the lowest participant group id). Until that
     operation executes, the transaction is abortable; after it, every
     in-doubt party rolls forward.
   - Aborts are presumed: [Abort txn] at the decision group records a
     durable "aborted" even for a transaction it never saw, so a late
     PREPARE retransmission votes no instead of resurrecting the txn.

   A crashed coordinator therefore leaves only locks, and any client that
   runs into one can finish the job: read [Txn_status] at the decision
   group (parsed out of the lock's error string), then drive Abort — or
   roll the commit forward if the decision group already committed. That
   recovery path is what the timeout in [invoke] triggers. *)

type fail_mode = No_failure | Crash_between_prepare_and_commit

type outcome = Committed | Aborted of string

(* One dedicated client per group, used strictly FIFO: jobs queue behind
   the in-flight one. Lanes keep 2PC traffic off the caller's proxies and
   give each handle parallelism across groups while respecting the
   one-op-per-client rule. *)
type lane = {
  lane_client : Client.t;
  lane_jobs : (unit -> unit) Queue.t;
  mutable lane_busy : bool;
}

type t = {
  rig : Rig.t;
  engine : Engine.t;
  name : string;
  lanes : lane array;
  rng : Rng.t;
  base_backoff : float;
  prepare_timeout : float;
  recovery_timeout : float option;
  mutable seq : int;
  mutable busy : bool;
  mutable dead : bool;
  mutable fail_mode : fail_mode;
  mutable started : int;
  mutable committed : int;
  mutable aborted : int;
  mutable recoveries : int;
}

let create ?(name = "txn") ?prepare_timeout ?recovery_timeout rig =
  let config = Rig.config rig in
  let ordinal = Rig.alloc_proxy_ordinal rig in
  {
    rig;
    engine = Rig.engine rig;
    name = Printf.sprintf "%s%d" name ordinal;
    lanes =
      Array.init (Rig.group_capacity rig) (fun g ->
          {
            lane_client = Cluster.add_client (Rig.cluster rig g);
            lane_jobs = Queue.create ();
            lane_busy = false;
          });
    rng = Rig.fork_rng rig (Printf.sprintf "proxy.backoff.%d" ordinal);
    base_backoff = config.Config.client_retry_timeout;
    (* The deadline must outlive a view change plus prepare retransmissions,
       or healthy-but-slow transactions abort spuriously under load. *)
    prepare_timeout =
      Option.value prepare_timeout
        ~default:(8.0 *. config.Config.view_change_timeout);
    recovery_timeout;
    seq = 0;
    busy = false;
    dead = false;
    fail_mode = No_failure;
    started = 0;
    committed = 0;
    aborted = 0;
    recoveries = 0;
  }

let set_fail_mode t mode = t.fail_mode <- mode

(* --- lanes ------------------------------------------------------------ *)

let lane_pump lane =
  if (not lane.lane_busy) && not (Queue.is_empty lane.lane_jobs) then begin
    lane.lane_busy <- true;
    (Queue.pop lane.lane_jobs) ()
  end

let lane_done lane =
  lane.lane_busy <- false;
  lane_pump lane

(* Invoke [op] on group [g], retrying rejected (admission-shed) attempts
   with jittered backoff forever — 2PC termination ops must eventually get
   through or locks leak. The lane is released between retries so queued
   jobs are not starved by one backoff loop. Results are dropped silently
   once the handle is dead. *)
let lane_invoke t g op callback =
  let lane = t.lanes.(g) in
  let payload = Kv.op_payload op in
  let read_only = Kv.is_read_only_op op in
  let rec job attempt () =
    if t.dead then lane_done lane
    else
      Client.invoke lane.lane_client ~read_only payload (fun raw ->
          if raw.Client.rejected then begin
            let delay =
              Client.retry_backoff ~base:t.base_backoff ~cap:64.0 ~rng:t.rng
                ~attempt
            in
            Engine.schedule t.engine ~delay (fun () ->
                Queue.add (job (attempt + 1)) lane.lane_jobs;
                lane_pump lane);
            lane_done lane
          end
          else begin
            let result = Kv.result_of_payload raw.Client.result in
            lane_done lane;
            if not t.dead then callback result
          end)
  in
  Queue.add (job 0) lane.lane_jobs;
  lane_pump lane

(* Run [op] on every group in [groups] (in parallel over lanes), then [k]. *)
let drive t op groups k =
  let pending = ref (List.length groups) in
  if !pending = 0 then k ()
  else
    List.iter
      (fun g ->
        lane_invoke t g op (fun _ ->
            decr pending;
            if !pending = 0 then k ()))
      groups

(* --- cross-shard transactions ----------------------------------------- *)

let write_key = function
  | Kv.Put (k, _) | Kv.Delete k -> Some k
  | Kv.Cas { key; _ } -> Some key
  | _ -> None

let sort_uniq_ints l = List.sort_uniq compare l

let exec t ops callback =
  if t.busy then invalid_arg "Txn.exec: operation already outstanding";
  if t.dead then invalid_arg "Txn.exec: handle is dead";
  let keys =
    List.map
      (fun op ->
        match write_key op with
        | Some k -> k
        | None -> invalid_arg "Txn.exec: only Put/Delete/Cas may participate")
      ops
  in
  if keys = [] then invalid_arg "Txn.exec: empty transaction";
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    invalid_arg "Txn.exec: duplicate keys";
  t.busy <- true;
  t.started <- t.started + 1;
  let txn = Printf.sprintf "%s.%d" t.name t.seq in
  t.seq <- t.seq + 1;
  (* All-or-nothing slot acquisition: if any needed slot is migrating, park
     the whole transaction behind that one slot without holding any other —
     partial holds could deadlock two transactions against one reshard. *)
  let held = ref [] in
  let release_slots () =
    List.iter (fun s -> Rig.release_slot t.rig s) !held;
    held := []
  in
  let finish outcome =
    release_slots ();
    t.busy <- false;
    (match outcome with
    | Committed -> t.committed <- t.committed + 1
    | Aborted _ -> t.aborted <- t.aborted + 1);
    callback outcome
  in
  let rec acquire () =
    if t.dead then ()
    else begin
      let router = Rig.router t.rig in
      let slots = sort_uniq_ints (List.map (Router.slot_of_key router) keys) in
      match List.find_opt (Rig.slot_migrating t.rig) slots with
      | Some slot -> Rig.hold_slot t.rig ~slot acquire
      | None ->
        List.iter (fun s -> Rig.acquire_slot t.rig s) slots;
        held := slots;
        start router
    end
  and start router =
    let by_group = Hashtbl.create 4 in
    List.iter
      (fun op ->
        let key = Option.get (write_key op) in
        let g = Router.group_of_key router key in
        Hashtbl.replace by_group g
          (op :: Option.value (Hashtbl.find_opt by_group g) ~default:[]))
      ops;
    let participants =
      sort_uniq_ints (Hashtbl.fold (fun g _ acc -> g :: acc) by_group [])
    in
    let decision = List.hd participants in
    let others = List.filter (fun g -> g <> decision) participants in
    let resolved = ref false in
    let votes_pending = ref (List.length participants) in
    let all_yes = ref true in
    (* Resolution: whatever the decision group serialized wins. Our own
       intent can lose the race to a recovery client that aborted (or, on
       the abort path, to a commit that was already rolling forward). *)
    let decide_commit () =
      lane_invoke t decision (Kv.Commit txn) (function
        | Kv.Stored -> drive t (Kv.Commit txn) others (fun () -> finish Committed)
        | _ ->
          drive t (Kv.Abort txn) others (fun () ->
              finish (Aborted "aborted by recovery")))
    in
    let decide_abort reason =
      lane_invoke t decision (Kv.Abort txn) (function
        | Kv.Error "committed" ->
          drive t (Kv.Commit txn) others (fun () -> finish Committed)
        | _ ->
          drive t (Kv.Abort txn) others (fun () -> finish (Aborted reason)))
    in
    (* Coordinator-side abort deadline: a wedged prepare phase (replica
       crash, partition) must not hold locks forever. The votes cancel it
       when they resolve the transaction, so it leaves the engine's queue
       then instead of idling there for [prepare_timeout]. *)
    let deadline =
      Engine.schedule_event t.engine ~delay:t.prepare_timeout (fun () ->
          if (not !resolved) && not t.dead then begin
            resolved := true;
            decide_abort "prepare timeout"
          end)
    in
    List.iter
      (fun g ->
        let gops = List.rev (Hashtbl.find by_group g) in
        lane_invoke t g
          (Kv.Prepare { txn; decision; participants; ops = gops })
          (fun result ->
            if not !resolved then begin
              (match result with
              | Kv.Prepared true -> ()
              | _ -> all_yes := false);
              decr votes_pending;
              if !votes_pending = 0 then
                if !all_yes then begin
                  if t.fail_mode = Crash_between_prepare_and_commit then begin
                    (* Test-only fault injection: die at the worst moment,
                       locks held everywhere, no decision recorded. *)
                    release_slots ();
                    t.dead <- true
                  end
                  else begin
                    resolved := true;
                    Engine.cancel deadline;
                    decide_commit ()
                  end
                end
                else begin
                  resolved := true;
                  Engine.cancel deadline;
                  decide_abort "prepare voted no"
                end
            end))
      participants
  in
  acquire ()

(* --- single-key operations with lock recovery -------------------------- *)

(* "locked:<decision>:<txn>" *)
let parse_locked msg =
  match String.split_on_char ':' msg with
  | "locked" :: decision :: rest when rest <> [] -> (
    match int_of_string_opt decision with
    | Some d -> Some (d, String.concat ":" rest)
    | None -> None)
  | _ -> None

let invoke t op callback =
  if t.busy then invalid_arg "Txn.invoke: operation already outstanding";
  if t.dead then invalid_arg "Txn.invoke: handle is dead";
  let key =
    match op with
    | Kv.Get k | Kv.Put (k, _) | Kv.Delete k -> k
    | Kv.Cas { key; _ } -> key
    | _ -> invalid_arg "Txn.invoke: single-key operations only"
  in
  let read_only = Kv.is_read_only_op op in
  t.busy <- true;
  let held = ref None in
  let release () =
    Option.iter (fun s -> Rig.release_slot t.rig s) !held;
    held := None
  in
  let finish result =
    release ();
    t.busy <- false;
    callback result
  in
  let first_blocked = ref None in
  let rec dispatch n () =
    if t.dead then ()
    else begin
      let router = Rig.router t.rig in
      let slot = Router.slot_of_key router key in
      if (not read_only) && Rig.slot_migrating t.rig slot then
        Rig.hold_slot t.rig ~slot (dispatch n)
      else begin
        if not read_only then begin
          Rig.acquire_slot t.rig slot;
          held := Some slot
        end;
        attempt n
      end
    end
  and retry_later n =
    (* Re-route from scratch after the backoff: the slot may have moved. *)
    release ();
    let delay =
      Client.retry_backoff ~base:t.base_backoff ~cap:64.0 ~rng:t.rng ~attempt:n
    in
    Engine.schedule t.engine ~delay (dispatch (n + 1))
  and attempt n =
    let router = Rig.router t.rig in
    let group = Router.group_of_key router key in
    lane_invoke t group op (fun result ->
        match result with
        | Kv.Error msg when parse_locked msg <> None -> (
          let decision, txn = Option.get (parse_locked msg) in
          let now = Engine.now t.engine in
          let blocked_since =
            match !first_blocked with
            | Some s -> s
            | None ->
              first_blocked := Some now;
              now
          in
          match t.recovery_timeout with
          | Some timeout when now -. blocked_since >= timeout ->
            t.recoveries <- t.recoveries + 1;
            recover ~decision ~txn ~own_group:group ~n
          | _ -> retry_later n)
        | result -> finish result)
  and recover ~decision ~txn ~own_group ~n =
    (* Learn the serialized outcome at the decision group, then finish the
       dead coordinator's job before retrying our own operation. *)
    lane_invoke t decision (Kv.Txn_status txn) (fun status ->
        let resume () = retry_later n in
        match status with
        | Kv.Txn_state { state; participants } when state = Kv.txn_prepared ->
          let rest =
            sort_uniq_ints (own_group :: participants)
            |> List.filter (fun g -> g <> decision)
          in
          lane_invoke t decision (Kv.Abort txn) (function
            | Kv.Error "committed" -> drive t (Kv.Commit txn) rest resume
            | _ -> drive t (Kv.Abort txn) rest resume)
        | Kv.Txn_state { state; _ } when state = Kv.txn_committed ->
          drive t (Kv.Commit txn) [ own_group ] resume
        | Kv.Txn_state { state; _ } when state = Kv.txn_aborted ->
          drive t (Kv.Abort txn) [ own_group ] resume
        | _ ->
          (* Unknown at the decision group: presumed abort. Record the
             decision there first so a late PREPARE cannot resurrect it,
             then clear our own group's locks. *)
          lane_invoke t decision (Kv.Abort txn) (function
            | Kv.Error "committed" -> drive t (Kv.Commit txn) [ own_group ] resume
            | _ -> drive t (Kv.Abort txn) [ own_group ] resume))
  in
  dispatch 0 ()

let busy t = t.busy

let dead t = t.dead

let started t = t.started

let committed t = t.committed

let aborted t = t.aborted

let recoveries t = t.recoveries
