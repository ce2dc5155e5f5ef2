module Engine = Bft_sim.Engine
module Calibration = Bft_sim.Calibration
module Network = Bft_net.Network
module Cluster = Bft_core.Cluster
module Config = Bft_core.Config
module Monitor = Bft_trace.Monitor
module Rng = Bft_util.Rng
module Stats = Bft_util.Stats

(* Per-slot migration gate. Mutating key-addressed traffic for a slot is
   counted in [inflight] while a proxy works on it; a migration first raises
   [migrating] (new arrivals park in [held]) and then waits for [inflight]
   to drain before snapshotting the donor. *)
type slot_gate = {
  mutable migrating : bool;
  mutable inflight : int;
  held : (unit -> unit) Queue.t;
}

type t = {
  network : Network.t;
  config : Config.t;
  mutable router : Router.t;
  groups : Cluster.t array;  (* full capacity; router may use a prefix *)
  gates : slot_gate array;
  mutable proxy_ordinals : int;
  root_rng : Rng.t;
}

(* Client principals are [n + g * stride + i]; 4096 clients per group is
   far beyond anything the bench sweeps, and the stride keeps trace request
   ids (client principal << 40 | timestamp) unambiguous across groups. *)
let principal_stride = 1 lsl 12

let create ?(cal = Calibration.default) ?(seed = 42) ?client_machines
    ?(trace = Bft_trace.Trace.nil) ?initial_groups ~groups ~config ~service () =
  if groups < 1 then invalid_arg "Rig.create: groups must be positive";
  let initial = Option.value initial_groups ~default:groups in
  if initial < 1 || initial > groups then
    invalid_arg "Rig.create: initial_groups must be in [1, groups]";
  let root_rng = Rng.of_int seed in
  let network =
    Network.simulation ~cal ~trace ~rng:(Rng.split root_rng "network") ()
  in
  let router = Router.create ~groups:initial () in
  let n = config.Config.n in
  let clusters =
    Array.init groups (fun g ->
        let label = Printf.sprintf "group%d" g in
        Cluster.create ~network
          ~seed:(Rng.int (Rng.split root_rng label) (1 lsl 30))
          ?client_machines
          ~name_prefix:(Printf.sprintf "g%d/" g)
          ~client_principal_base:(n + (g * principal_stride))
          ~master:(Printf.sprintf "shard-master-%d-g%d" seed g)
          ~config
          ~service:(fun r -> service ~group:g r)
          ())
  in
  {
    network;
    config;
    router;
    groups = clusters;
    gates =
      Array.init (Router.slots router) (fun _ ->
          { migrating = false; inflight = 0; held = Queue.create () });
    proxy_ordinals = 0;
    root_rng;
  }

let engine t = Network.engine t.network

let network t = t.network

let router t = t.router

let set_router t router =
  if Router.slots router <> Array.length t.gates then
    invalid_arg "Rig.set_router: slot count must not change";
  if Router.groups router > Array.length t.groups then
    invalid_arg "Rig.set_router: more groups than the rig has clusters";
  t.router <- router

let config t = t.config

let group_count t = Router.groups t.router

let group_capacity t = Array.length t.groups

let alloc_proxy_ordinal t =
  let o = t.proxy_ordinals in
  t.proxy_ordinals <- o + 1;
  o

(* --- slot gating ------------------------------------------------------ *)

let slot_migrating t slot = t.gates.(slot).migrating

let slot_inflight t slot = t.gates.(slot).inflight

let acquire_slot t slot =
  let g = t.gates.(slot) in
  g.inflight <- g.inflight + 1

let release_slot t slot =
  let g = t.gates.(slot) in
  if g.inflight <= 0 then invalid_arg "Rig.release_slot: not held";
  g.inflight <- g.inflight - 1

let hold_slot t ~slot k = Queue.add k t.gates.(slot).held

let begin_slot_migration t slot =
  let g = t.gates.(slot) in
  if g.migrating then invalid_arg "Rig.begin_slot_migration: already migrating";
  g.migrating <- true

let end_slot_migration t slot =
  let g = t.gates.(slot) in
  if not g.migrating then invalid_arg "Rig.end_slot_migration: not migrating";
  g.migrating <- false;
  (* Drain to a list first: a released continuation re-enters routing from
     scratch and may legitimately re-park itself (back onto [held]) if a
     later migration of the same slot has already begun. *)
  let released = ref [] in
  while not (Queue.is_empty g.held) do
    released := Queue.pop g.held :: !released
  done;
  List.iter (fun k -> k ()) (List.rev !released)

let cluster t g = t.groups.(g)

let clusters t = Array.copy t.groups

let run ?until t = Engine.run ?until (engine t)

let now t = Engine.now (engine t)

let rng t label = Rng.split t.root_rng label

let fork_rng t label = Rng.fork t.root_rng label

let profile t = Network.profile t.network

(* --- health monitoring ------------------------------------------------ *)

let attach_monitors t =
  Array.mapi
    (fun g cluster ->
      let mon = Monitor.create ~group:(Printf.sprintf "g%d/" g) () in
      Cluster.attach_monitor cluster mon;
      mon)
    t.groups

type rollup = {
  ru_alerts : int;
  ru_groups_alerting : int;
  ru_throughput : float;
  ru_worst_p99 : float;
  ru_view_changes : int;
  ru_checkpoint_lag : int;
  ru_replay_drops : int;
}

let health_rollup mons =
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 mons in
  {
    ru_alerts = sum Monitor.alert_count;
    ru_groups_alerting =
      Array.fold_left
        (fun acc m -> if Monitor.healthy m then acc else acc + 1)
        0 mons;
    ru_throughput =
      Array.fold_left (fun acc m -> acc +. Monitor.throughput m) 0.0 mons;
    ru_worst_p99 =
      Array.fold_left
        (fun acc m ->
          Float.max_num acc (Stats.Sketch.p99 (Monitor.latency_sketch m)))
        Float.nan mons;
    ru_view_changes = sum Monitor.view_changes;
    ru_checkpoint_lag =
      Array.fold_left
        (fun acc m -> Stdlib.max acc (Monitor.checkpoint_lag m))
        0 mons;
    ru_replay_drops = sum Monitor.replay_drops;
  }

let rollup_line r =
  Printf.sprintf
    "fleet: %d alert%s in %d group%s | %.0f ops/s | worst p99 %s | %d view \
     change%s | checkpoint lag %d | %d replay drop%s"
    r.ru_alerts
    (if r.ru_alerts = 1 then "" else "s")
    r.ru_groups_alerting
    (if r.ru_groups_alerting = 1 then "" else "s")
    r.ru_throughput
    (if Float.is_nan r.ru_worst_p99 then "n/a"
     else Printf.sprintf "%.1f ms" (r.ru_worst_p99 *. 1e3))
    r.ru_view_changes
    (if r.ru_view_changes = 1 then "" else "s")
    r.ru_checkpoint_lag r.ru_replay_drops
    (if r.ru_replay_drops = 1 then "" else "s")
