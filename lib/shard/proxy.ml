module Client = Bft_core.Client
module Cluster = Bft_core.Cluster
module Config = Bft_core.Config
module Engine = Bft_sim.Engine
module Rng = Bft_util.Rng
module Kv = Bft_services.Kv_store

type t = {
  rig : Rig.t;
  clients : Client.t array;  (* one per built group, live or spare *)
  engine : Engine.t;
  ordinal : int;
  rng : Rng.t;
  retry_budget : int;  (* proxy-level re-invokes after a rejection *)
  base_backoff : float;
  completed : int array;
  mutable sheds : int;  (* operations that ended rejected *)
  mutable shed_attempts : int;  (* rejected attempts, retried ones included *)
  shed_retries : int array;  (* proxy-level retries spent, per group *)
  mutable busy : bool;
}

type outcome = {
  group : int;
  result : Kv.result;
  raw : Client.outcome;
}

let create ?(retry_budget = 2) rig =
  let capacity = Rig.group_capacity rig in
  let clients =
    Array.init capacity (fun g -> Cluster.add_client (Rig.cluster rig g))
  in
  let ordinal = Rig.alloc_proxy_ordinal rig in
  {
    rig;
    clients;
    engine = Rig.engine rig;
    ordinal;
    (* fork, not split: drawing the backoff stream must not advance the
       rig root, or creating a proxy would perturb every later labelled
       derivation (and the golden bench results with it). Labelled by the
       rig-wide proxy ordinal — a per-proxy identity — so no two proxies
       ever share a jitter stream and back off in lockstep. *)
    rng = Rig.fork_rng rig (Printf.sprintf "proxy.backoff.%d" ordinal);
    retry_budget;
    base_backoff = (Rig.config rig).Config.client_retry_timeout;
    completed = Array.make capacity 0;
    sheds = 0;
    shed_attempts = 0;
    shed_retries = Array.make capacity 0;
    busy = false;
  }

let key_of_op = function
  | Kv.Get k | Kv.Put (k, _) | Kv.Delete k -> Some k
  | Kv.Cas { key; _ } -> Some key
  | Kv.Prepare _ | Kv.Commit _ | Kv.Abort _ | Kv.Txn_status _
  | Kv.Snapshot_slot _ | Kv.Install _ | Kv.Drop_slot _ ->
    None

let group_of_op t op =
  match key_of_op op with
  | Some key -> Router.group_of_key (Rig.router t.rig) key
  | None -> invalid_arg "Proxy: only single-key operations route by key"

let invoke t op callback =
  if t.busy then invalid_arg "Proxy.invoke: operation already outstanding";
  let key =
    match key_of_op op with
    | Some key -> key
    | None ->
      invalid_arg
        "Proxy.invoke: transaction/migration operations go through Txn"
  in
  let read_only = Kv.is_read_only_op op in
  t.busy <- true;
  (* Routing happens per dispatch — never cached — because a live reshard
     can re-own the key's slot while this operation is parked behind the
     migration fence. *)
  let rec dispatch () =
    let router = Rig.router t.rig in
    let slot = Router.slot_of_key router key in
    if (not read_only) && Rig.slot_migrating t.rig slot then
      Rig.hold_slot t.rig ~slot dispatch
    else begin
      let held = if read_only then None else Some slot in
      Option.iter (fun s -> Rig.acquire_slot t.rig s) held;
      let group = Router.group_of_key router key in
      let finish result raw =
        Option.iter (fun s -> Rig.release_slot t.rig s) held;
        t.busy <- false;
        t.completed.(group) <- t.completed.(group) + 1;
        callback { group; result; raw }
      in
      (* Graceful degradation: a rejected attempt (the group's primary shed
         it past the client's own retry budget) is re-invoked after a
         jittered backoff up to [retry_budget] times, then surfaced as an
         explicit [Error "busy"] so the caller sees shed load instead of
         silent loss. [shed_attempts] counts every rejected attempt;
         [sheds] counts only operations whose budget ran out — the figure
         comparable to the clients' own [ops.rejected]. *)
      let rec attempt n =
        Client.invoke t.clients.(group) ~read_only (Kv.op_payload op)
          (fun raw ->
            if raw.Client.rejected then begin
              t.shed_attempts <- t.shed_attempts + 1;
              if n < t.retry_budget then begin
                t.shed_retries.(group) <- t.shed_retries.(group) + 1;
                let delay =
                  Client.retry_backoff ~base:t.base_backoff ~cap:64.0
                    ~rng:t.rng ~attempt:n
                in
                Engine.schedule t.engine ~delay (fun () -> attempt (n + 1))
              end
              else begin
                t.sheds <- t.sheds + 1;
                finish (Kv.Error "busy") raw
              end
            end
            else finish (Kv.result_of_payload raw.Client.result) raw)
      in
      attempt 0
    end
  in
  dispatch ()

let ordinal t = t.ordinal

let next_backoff t ~attempt =
  Client.retry_backoff ~base:t.base_backoff ~cap:64.0 ~rng:t.rng ~attempt

let completed t = Array.copy t.completed

let total_completed t = Array.fold_left ( + ) 0 t.completed

let shed_retries t = Array.copy t.shed_retries

let total_sheds t = t.sheds

let total_shed_attempts t = t.shed_attempts

let retransmissions t =
  Array.fold_left
    (fun acc c -> acc + Client.count c Client.Retransmitted)
    0 t.clients
