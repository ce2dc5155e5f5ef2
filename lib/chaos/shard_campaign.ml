module Engine = Bft_sim.Engine
module Rng = Bft_util.Rng
module Fingerprint = Bft_crypto.Fingerprint
module Rig = Bft_shard.Rig
module Router = Bft_shard.Router
module Txn = Bft_shard.Txn
module Reshard = Bft_shard.Reshard
module Kv = Bft_services.Kv_store
open Bft_core

(* Chaos for the cross-shard layer: drive single-key writers and 2PC
   coordinators over a sharded rig, optionally reshard it live and crash
   things at the worst moments, then audit two shard-level invariants on
   top of the per-group safety audit:

   - [txn.atomic]: every cross-shard transaction is all-or-nothing. Each
     transaction writes its own unique tag to its (unique) keys, so the
     authoritative readback must find the tag under all of the keys or
     none; recorded decisions must agree across groups; and once traffic
     has settled no caught-up replica may still hold locks or in-doubt
     prepares — the residue of a wedged coordinator.
   - [reshard.no_lost_keys]: every key committed by the writers reads back
     with its last committed value after the migration, and donors retire
     their copies of moved slots.

   The scenarios are deterministic in (scenario, seed): the coordinator
   crash is armed on a fixed transaction index, not a timer. *)

type scenario = Healthy | Coordinator_crash | Replica_mid_migration

type violation = Campaign.violation = { invariant : string; detail : string }

type outcome = {
  seed : int;
  scenario : scenario;
  recovery : bool;
  writes_committed : int;
  txns_started : int;
  txns_committed : int;
  txns_aborted : int;
  txns_in_doubt : int;
  recoveries : int;
  moved_slots : int;
  moved_keys : int;
  sim_time : float;
  violations : violation list;
}

let failed o = o.violations <> []

let scenario_name = function
  | Healthy -> "healthy"
  | Coordinator_crash -> "coordinator-crash"
  | Replica_mid_migration -> "mid-migration"

(* Campaign shape: fixed, so (scenario, seed) pins down the run. *)
let f = 1
let capacity = 3 (* built groups; the third starts empty *)
let initial_groups = 2
let writers = 2
let writer_keys = 4
let coordinators = 2
let horizon = 2.5
let reshard_at = 0.8
let crash_at = 0.85
let crash_txn_index = 2 (* 0-based: the coordinator dies on its third txn *)
let writer_think = 0.02
let coord_think = 0.05
let settle_budget = 60.0

type coord_txn = {
  ct_tag : string;
  ct_keys : string list;
  mutable ct_outcome : Txn.outcome option;  (* None: in doubt (crash) *)
}

let run ?(scenario = Healthy) ?(recovery = true) ~seed () =
  let config =
    Config.make ~f ~checkpoint_interval:8 ~log_window:16
      ~admission_queue_limit:16 ~shed_retry_budget:4 ()
  in
  let stores =
    Array.init capacity (fun _ ->
        Array.init config.Config.n (fun _ -> Kv.create_store ()))
  in
  let rig =
    Rig.create ~seed ~initial_groups ~groups:capacity ~config
      ~service:(fun ~group r -> Kv.service_of_store stores.(group).(r))
      ()
  in
  let engine = Rig.engine rig in
  let camp_rng = Rig.rng rig "shard-campaign" in
  let recovery_timeout = if recovery then Some 0.3 else None in
  let violations = ref [] in
  let violate invariant detail =
    if List.length !violations < 8 then
      violations := !violations @ [ { invariant; detail } ]
  in
  (* --- single-key writers: the no_lost_keys ledger -------------------- *)
  let ledger : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let writes_committed = ref 0 in
  let writer_handles =
    List.init writers (fun w ->
        let h =
          Txn.create ~name:(Printf.sprintf "w%d" w) ?recovery_timeout rig
        in
        let rng = Rng.split camp_rng (Printf.sprintf "writer%d" w) in
        let seq = ref 0 in
        let rec step () =
          if Engine.now engine < horizon then begin
            let key = Printf.sprintf "w%d.k%d" w (Rng.int rng writer_keys) in
            let value = Printf.sprintf "w%d.v%d" w !seq in
            incr seq;
            Txn.invoke h (Kv.Put (key, value)) (fun result ->
                (match result with
                | Kv.Stored ->
                  incr writes_committed;
                  Hashtbl.replace ledger key value
                | other ->
                  violate "reshard.no_lost_keys"
                    (Printf.sprintf "writer put %s failed: %s" key
                       (match other with
                       | Kv.Error e -> e
                       | _ -> "unexpected result")));
                Engine.schedule engine ~delay:(Rng.float rng writer_think) step)
          end
        in
        Engine.schedule engine ~delay:(Rng.float rng writer_think) step;
        h)
  in
  (* --- cross-shard coordinators --------------------------------------- *)
  let coord_txns = ref [] in
  let coord_handles =
    List.init coordinators (fun c ->
        let h =
          Txn.create ~name:(Printf.sprintf "c%d" c) ~prepare_timeout:1.0
            ?recovery_timeout rig
        in
        let rng = Rng.split camp_rng (Printf.sprintf "coord%d" c) in
        let seq = ref 0 in
        let rec step () =
          if Engine.now engine < horizon && not (Txn.dead h) then begin
            let i = !seq in
            incr seq;
            let k1 = Printf.sprintf "c%d.a%d" c i in
            (* Prefer a partner key in another group so the transaction
               actually spans shards; settle for same-group if the hash
               refuses to cooperate. *)
            let router = Rig.router rig in
            let g1 = Router.group_of_key router k1 in
            let k2 =
              let rec pick tries =
                let cand =
                  if tries = 0 then Printf.sprintf "c%d.b%d" c i
                  else Printf.sprintf "c%d.b%d.%d" c i tries
                in
                if Router.group_of_key router cand <> g1 || tries >= 16 then
                  cand
                else pick (tries + 1)
              in
              pick 0
            in
            let tag = Printf.sprintf "c%d.t%d" c i in
            let record =
              { ct_tag = tag; ct_keys = [ k1; k2 ]; ct_outcome = None }
            in
            coord_txns := record :: !coord_txns;
            if scenario = Coordinator_crash && c = 0 && i = crash_txn_index
            then Txn.set_fail_mode h Crash_between_prepare_and_commit;
            Txn.exec h
              [ Kv.Put (k1, tag); Kv.Put (k2, tag) ]
              (fun outcome ->
                record.ct_outcome <- Some outcome;
                Engine.schedule engine ~delay:(Rng.float rng coord_think) step)
          end
        in
        Engine.schedule engine ~delay:(Rng.float rng coord_think) step;
        h)
  in
  (* --- scenario events ------------------------------------------------ *)
  let with_reshard = scenario <> Coordinator_crash in
  let migration = ref None in
  if with_reshard then
    Engine.schedule_at engine reshard_at (fun () ->
        Reshard.extend rig ~groups:capacity (fun p -> migration := Some p));
  let crashed = ref None in
  if scenario = Replica_mid_migration then
    Engine.schedule_at engine crash_at (fun () ->
        (* Replica 1 of group 0 — a donor group under the 2→3 extend. *)
        Cluster.crash_replica (Rig.cluster rig 0) 1;
        crashed := Some (0, 1));
  (* --- faulted window, heal, settle ----------------------------------- *)
  Rig.run ~until:horizon rig;
  Option.iter
    (fun (g, r) -> Cluster.restart_replica (Rig.cluster rig g) r)
    !crashed;
  let quiesced () =
    List.for_all (fun h -> Txn.dead h || not (Txn.busy h)) writer_handles
    && List.for_all (fun h -> Txn.dead h || not (Txn.busy h)) coord_handles
    && ((not with_reshard) || !migration <> None)
  in
  let deadline = horizon +. settle_budget in
  let rec settle t slack =
    if quiesced () && slack >= 2 then ()
    else if t >= deadline then ()
    else begin
      let t' = Stdlib.min (t +. 1.0) deadline in
      Rig.run ~until:t' rig;
      settle t' (if quiesced () then slack + 1 else 0)
    end
  in
  settle horizon 0;
  if not (quiesced ()) then begin
    if with_reshard && !migration = None then
      violate "reshard.no_lost_keys"
        (Printf.sprintf "migration still incomplete %.0f s after the window"
           settle_budget)
    else
      violate "txn.atomic"
        (Printf.sprintf "client operations still unresolved %.0f s after the \
                         window"
           settle_budget)
  end;
  (* --- janitor: a blocked client recovers the crashed coordinator ------ *)
  let in_doubt =
    List.filter (fun r -> r.ct_outcome = None) (List.rev !coord_txns)
  in
  let janitor_recoveries = ref 0 in
  if scenario = Coordinator_crash && recovery && in_doubt <> [] then begin
    let janitor = Txn.create ~name:"janitor" ~recovery_timeout:0.05 rig in
    let jobs =
      List.concat_map
        (fun r -> List.map (fun k -> Kv.Put (k, "janitor")) r.ct_keys)
        in_doubt
    in
    let pending = ref (List.length jobs) in
    let rec drain = function
      | [] -> ()
      | op :: rest ->
        Txn.invoke janitor op (fun _ ->
            decr pending;
            drain rest)
    in
    drain jobs;
    let rec wait t =
      if !pending > 0 && t < deadline then begin
        let t' = Stdlib.min (t +. 1.0) deadline in
        Rig.run ~until:t' rig;
        wait t'
      end
    in
    wait (Engine.now engine);
    janitor_recoveries := Txn.recoveries janitor;
    if !pending > 0 then
      violate "txn.atomic" "janitor writes blocked: lock recovery is wedged"
  end;
  (* --- authoritative readback ------------------------------------------ *)
  let reader = Txn.create ~name:"reader" rig in
  let read_all keys k =
    let results : (string, string option) Hashtbl.t = Hashtbl.create 64 in
    let rec next = function
      | [] -> k results
      | key :: rest ->
        Txn.invoke reader (Kv.Get key) (fun result ->
            (match result with
            | Kv.Value v -> Hashtbl.replace results key v
            | _ -> Hashtbl.replace results key None);
            next rest)
    in
    next keys
  in
  let ledger_keys = Hashtbl.fold (fun k _ acc -> k :: acc) ledger [] in
  let txn_keys = List.concat_map (fun r -> r.ct_keys) (List.rev !coord_txns) in
  let readback = ref None in
  read_all
    (List.sort_uniq compare (ledger_keys @ txn_keys))
    (fun results -> readback := Some results);
  let rec pump t =
    if !readback = None && t < deadline +. 30.0 then begin
      let t' = t +. 1.0 in
      Rig.run ~until:t' rig;
      pump t'
    end
  in
  pump (Engine.now engine);
  (match !readback with
  | None -> violate "txn.atomic" "authoritative readback never completed"
  | Some results ->
    let value key = Option.join (Hashtbl.find_opt results key) in
    (* reshard.no_lost_keys: every committed write survives, at its final
       owner, with its last committed value. Janitor overwrites are
       confined to coordinator keys, which the ledger never contains. *)
    Hashtbl.iter
      (fun key expect ->
        match value key with
        | Some v when String.equal v expect -> ()
        | got ->
          violate "reshard.no_lost_keys"
            (Printf.sprintf "key %s: committed %S but reads back %s" key
               expect
               (match got with Some v -> Printf.sprintf "%S" v | None -> "nothing")))
      ledger;
    (* txn.atomic, effect side: each transaction's tag is under all of its
       keys or none. The in-doubt (crashed, then janitor-overwritten or
       abandoned) transactions must land on "none". *)
    List.iter
      (fun r ->
        let tags =
          List.length
            (List.filter
               (fun k ->
                 match value k with
                 | Some v -> String.equal v r.ct_tag
                 | None -> false)
               r.ct_keys)
        in
        let total = List.length r.ct_keys in
        let atomic = tags = 0 || tags = total in
        let consistent =
          match r.ct_outcome with
          | Some Txn.Committed -> tags = total
          | Some (Txn.Aborted _) -> tags = 0
          | None -> atomic
        in
        if not (atomic && consistent) then
          violate "txn.atomic"
            (Printf.sprintf
               "txn %s: %d of %d keys carry its writes (coordinator saw %s)"
               r.ct_tag tags total
               (match r.ct_outcome with
               | Some Txn.Committed -> "commit"
               | Some (Txn.Aborted reason) -> "abort: " ^ reason
               | None -> "nothing: in doubt")))
      (List.rev !coord_txns));
  (* --- store-level audits (caught-up replicas only) -------------------- *)
  let caught_up g =
    let rs = Cluster.replicas (Rig.cluster rig g) in
    let len r = List.length (Replica.executed_digests r) in
    let longest = Array.fold_left (fun acc r -> Stdlib.max acc (len r)) 0 rs in
    List.filter (fun i -> len rs.(i) = longest)
      (List.init (Array.length rs) Fun.id)
  in
  (* Per-group agreement: same digest at every finally-executed seq. *)
  for g = 0 to capacity - 1 do
    let rs = Cluster.replicas (Rig.cluster rig g) in
    let table : (int, int * Fingerprint.t) Hashtbl.t = Hashtbl.create 256 in
    Array.iteri
      (fun rid r ->
        List.iter
          (fun (seqno, digest) ->
            match Hashtbl.find_opt table seqno with
            | None -> Hashtbl.replace table seqno (rid, digest)
            | Some (_, d0) ->
              if not (Fingerprint.equal d0 digest) then
                violate "safety.agreement"
                  (Printf.sprintf "group %d seq %d: divergent execution" g
                     seqno))
          (Replica.executed_digests r))
      rs
  done;
  (* Lock hygiene: once everything settled, in-doubt state means a wedged
     transaction. Without recovery this is the expected catch: the dead
     coordinator's locks linger forever. *)
  let decisions : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  for g = 0 to capacity - 1 do
    List.iter
      (fun rid ->
        let store = stores.(g).(rid) in
        (match Kv.store_locks store with
        | [] -> ()
        | (key, txn) :: _ ->
          violate "txn.atomic"
            (Printf.sprintf
               "group %d replica %d: key %s still locked by %s after settle" g
               rid key txn));
        (match Kv.store_prepared_txns store with
        | [] -> ()
        | txn :: _ ->
          violate "txn.atomic"
            (Printf.sprintf
               "group %d replica %d: txn %s still in doubt after settle" g rid
               txn));
        List.iter
          (fun r ->
            match Kv.store_decision store r.ct_tag with
            | None -> ()
            | Some committed -> (
              let id = r.ct_tag in
              match Hashtbl.find_opt decisions id with
              | None -> Hashtbl.replace decisions id committed
              | Some prior ->
                if prior <> committed then
                  violate "txn.atomic"
                    (Printf.sprintf "txn %s decided both ways across groups" id)))
          !coord_txns)
      (caught_up g)
  done;
  (* Donor retirement: moved ledger keys must be gone from their donors. *)
  (if with_reshard && !migration <> None then
     let final_router = Rig.router rig in
     let initial_router = Router.create ~groups:initial_groups () in
     Hashtbl.iter
       (fun key _ ->
         let donor = Router.group_of_key initial_router key in
         let owner = Router.group_of_key final_router key in
         if donor <> owner then
           List.iter
             (fun rid ->
               match Kv.store_find stores.(donor).(rid) key with
               | None -> ()
               | Some _ ->
                 violate "reshard.no_lost_keys"
                   (Printf.sprintf
                      "group %d replica %d still holds moved key %s" donor rid
                      key))
             (caught_up donor))
       ledger);
  let txns_in_doubt =
    List.length (List.filter (fun r -> r.ct_outcome = None) !coord_txns)
  in
  {
    seed;
    scenario;
    recovery;
    writes_committed = !writes_committed;
    txns_started =
      List.fold_left (fun acc h -> acc + Txn.started h) 0 coord_handles;
    txns_committed =
      List.fold_left (fun acc h -> acc + Txn.committed h) 0 coord_handles;
    txns_aborted =
      List.fold_left (fun acc h -> acc + Txn.aborted h) 0 coord_handles;
    txns_in_doubt;
    recoveries =
      !janitor_recoveries
      + List.fold_left
          (fun acc h -> acc + Txn.recoveries h)
          0 (writer_handles @ coord_handles);
    moved_slots = (match !migration with Some p -> p.Reshard.moved_slots | None -> 0);
    moved_keys = (match !migration with Some p -> p.Reshard.moved_keys | None -> 0);
    sim_time = Rig.now rig;
    violations = !violations;
  }

(* --- reporting --------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jsonl o =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "{\"scenario\":\"%s\",\"seed\":%d,\"recovery\":%b,\"writes_committed\":%d,\"txns_started\":%d,\"txns_committed\":%d,\"txns_aborted\":%d,\"txns_in_doubt\":%d,\"recoveries\":%d,\"moved_slots\":%d,\"moved_keys\":%d,\"sim_time\":%.6f,\"violations\":["
    (scenario_name o.scenario) o.seed o.recovery o.writes_committed
    o.txns_started o.txns_committed o.txns_aborted o.txns_in_doubt o.recoveries
    o.moved_slots o.moved_keys o.sim_time;
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"invariant\":\"%s\",\"detail\":\"%s\"}"
        (escape v.invariant) (escape v.detail))
    o.violations;
  Buffer.add_string b "]}";
  Buffer.contents b
