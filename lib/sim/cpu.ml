type category =
  | Mac_gen
  | Mac_verify
  | Digest
  | Encode
  | Decode
  | Exec
  | Other

let category_index = function
  | Mac_gen -> 0
  | Mac_verify -> 1
  | Digest -> 2
  | Encode -> 3
  | Decode -> 4
  | Exec -> 5
  | Other -> 6

let num_categories = 7

let category_labels =
  [| "mac_gen"; "mac_verify"; "digest"; "encode"; "decode"; "exec"; "other" |]

type t = {
  engine : Engine.t;
  speed : float;
  name : string;
  pending : (unit -> unit) Queue.t;
  mutable pumping : bool;
  mutable busy_until_ : float;
  mutable handler_start : float option;
  mutable accum : float; (* work charged by the running handler, speed-1 s *)
  busy_by_cat : float array; (* busy seconds per category; the fold IS total_busy *)
  mutable stats_since : float;
}

let create engine ?(speed = 1.0) ~name () =
  if speed <= 0.0 then invalid_arg "Cpu.create: speed";
  {
    engine;
    speed;
    name;
    pending = Queue.create ();
    pumping = false;
    busy_until_ = 0.0;
    handler_start = None;
    accum = 0.0;
    busy_by_cat = Array.make num_categories 0.0;
    stats_since = 0.0;
  }

let engine t = t.engine

let name t = t.name

let busy_until t = t.busy_until_

let virtual_now t =
  match t.handler_start with
  | Some start -> start +. (t.accum /. t.speed)
  | None -> Float.max (Engine.now t.engine) t.busy_until_

let charge ?(cat = Other) t seconds =
  if seconds < 0.0 then invalid_arg "Cpu.charge: negative";
  (match t.handler_start with
  | Some _ -> t.accum <- t.accum +. seconds
  | None ->
    let start = Float.max (Engine.now t.engine) t.busy_until_ in
    t.busy_until_ <- start +. (seconds /. t.speed));
  let i = category_index cat in
  t.busy_by_cat.(i) <- t.busy_by_cat.(i) +. (seconds /. t.speed)

let rec pump t () =
  match Queue.take_opt t.pending with
  | None -> t.pumping <- false
  | Some handler ->
    let start = Float.max (Engine.now t.engine) t.busy_until_ in
    t.handler_start <- Some start;
    t.accum <- 0.0;
    let finish_handler () =
      let finish = start +. (t.accum /. t.speed) in
      t.handler_start <- None;
      t.busy_until_ <- Float.max t.busy_until_ finish
    in
    (try handler ()
     with e ->
       finish_handler ();
       raise e);
    finish_handler ();
    if Queue.is_empty t.pending then t.pumping <- false
    else Engine.schedule_at t.engine t.busy_until_ (pump t)

let dispatch t handler =
  Queue.add handler t.pending;
  if not t.pumping then begin
    t.pumping <- true;
    Engine.schedule_at t.engine
      (Float.max (Engine.now t.engine) t.busy_until_)
      (pump t)
  end

(* Total busy time is *defined* as the fold over the per-category array, so
   the profiler invariant "category totals sum exactly to busy time" holds
   by construction (same floats, same addition order). *)
let total_busy t = Array.fold_left ( +. ) 0.0 t.busy_by_cat

let busy_seconds t = Array.copy t.busy_by_cat

let utilisation t ~since =
  let span = Engine.now t.engine -. since in
  if span <= 0.0 then 0.0 else Float.min 1.0 (total_busy t /. span)

let reset_stats t =
  Array.fill t.busy_by_cat 0 num_categories 0.0;
  t.stats_since <- Engine.now t.engine
