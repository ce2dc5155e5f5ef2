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

(* The clock: an all-float record is stored flat, so updating a field
   allocates nothing (a mutable float in a mixed record is boxed per
   store). *)
type clock = {
  mutable busy_until : float;
  mutable handler_start : float; (* meaningful while [in_handler] *)
  mutable accum : float; (* work charged by the running handler, speed-1 s *)
}

type t = {
  engine : Engine.t;
  speed : float;
  pending : (unit -> unit) Queue.t;
  mutable pumping : bool;
  clock : clock;
  mutable in_handler : bool;
  busy_by_cat : float array; (* busy seconds per category; the fold IS total_busy *)
}

let create engine ?(speed = 1.0) () =
  if speed <= 0.0 then invalid_arg "Cpu.create: speed";
  {
    engine;
    speed;
    pending = Queue.create ();
    pumping = false;
    clock = { busy_until = 0.0; handler_start = 0.0; accum = 0.0 };
    in_handler = false;
    busy_by_cat = Array.make num_categories 0.0;
  }

let busy_until t = t.clock.busy_until

let virtual_now t =
  let c = t.clock in
  if t.in_handler then c.handler_start +. (c.accum /. t.speed)
  else Float.max (Engine.now t.engine) c.busy_until

let charge ?(cat = Other) t seconds =
  if seconds < 0.0 then invalid_arg "Cpu.charge: negative";
  let c = t.clock in
  if t.in_handler then c.accum <- c.accum +. seconds
  else begin
    let start = Float.max (Engine.now t.engine) c.busy_until in
    c.busy_until <- start +. (seconds /. t.speed)
  end;
  let i = category_index cat in
  t.busy_by_cat.(i) <- t.busy_by_cat.(i) +. (seconds /. t.speed)

let rec pump t () =
  match Queue.take_opt t.pending with
  | None -> t.pumping <- false
  | Some handler ->
    let c = t.clock in
    let start = Float.max (Engine.now t.engine) c.busy_until in
    c.handler_start <- start;
    t.in_handler <- true;
    c.accum <- 0.0;
    let finish_handler () =
      let finish = start +. (c.accum /. t.speed) in
      t.in_handler <- false;
      c.busy_until <- Float.max c.busy_until finish
    in
    (try handler ()
     with e ->
       finish_handler ();
       raise e);
    finish_handler ();
    if Queue.is_empty t.pending then t.pumping <- false
    else Engine.schedule_at t.engine t.clock.busy_until (pump t)

let dispatch t handler =
  Queue.add handler t.pending;
  if not t.pumping then begin
    t.pumping <- true;
    Engine.schedule_at t.engine
      (Float.max (Engine.now t.engine) t.clock.busy_until)
      (pump t)
  end

(* Total busy time is *defined* as the fold over the per-category array, so
   the profiler invariant "category totals sum exactly to busy time" holds
   by construction (same floats, same addition order). *)
let total_busy t = Array.fold_left ( +. ) 0.0 t.busy_by_cat

let busy_seconds t = Array.copy t.busy_by_cat
