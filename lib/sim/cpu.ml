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
  mutable pump : unit -> unit;  (* [pump t], built once *)
  clock : clock;
  mutable in_handler : bool;
  busy_by_cat : float array; (* busy seconds per category; the fold IS total_busy *)
}

let busy_until t = t.clock.busy_until

let virtual_now t =
  let c = t.clock in
  if t.in_handler then c.handler_start +. (c.accum /. t.speed)
  else Float.max (Engine.now t.engine) c.busy_until

(* Inlined into both entry points, so a cost computed by [charge_bytes]
   is never boxed. *)
let[@inline] add t cat seconds =
  if seconds < 0.0 then invalid_arg "Cpu.charge: negative";
  let c = t.clock in
  if t.in_handler then c.accum <- c.accum +. seconds
  else begin
    let start = Float.max (Engine.now t.engine) c.busy_until in
    c.busy_until <- start +. (seconds /. t.speed)
  end;
  let i = category_index cat in
  t.busy_by_cat.(i) <- t.busy_by_cat.(i) +. (seconds /. t.speed)

let charge ?(cat = Other) t seconds = add t cat seconds

let charge_bytes ?(cat = Other) t ~base ~per_byte bytes =
  add t cat (base +. (float_of_int bytes *. per_byte))

(* The running handler is done: the CPU stays busy until its start plus
   the work it charged. *)
let finish_handler t =
  let c = t.clock in
  let finish = c.handler_start +. (c.accum /. t.speed) in
  t.in_handler <- false;
  c.busy_until <- Float.max c.busy_until finish

let pump t () =
  if Queue.is_empty t.pending then t.pumping <- false
  else begin
    let handler = Queue.take t.pending in
    let c = t.clock in
    c.handler_start <- Float.max (Engine.now t.engine) c.busy_until;
    t.in_handler <- true;
    c.accum <- 0.0;
    (try handler ()
     with e ->
       finish_handler t;
       raise e);
    finish_handler t;
    if Queue.is_empty t.pending then t.pumping <- false
    else Engine.schedule_at t.engine t.clock.busy_until t.pump
  end

let create engine ?(speed = 1.0) () =
  if speed <= 0.0 then invalid_arg "Cpu.create: speed";
  let t =
    {
      engine;
      speed;
      pending = Queue.create ();
      pumping = false;
      pump = ignore;
      clock = { busy_until = 0.0; handler_start = 0.0; accum = 0.0 };
      in_handler = false;
      busy_by_cat = Array.make num_categories 0.0;
    }
  in
  t.pump <- pump t;
  t

let dispatch t handler =
  Queue.add handler t.pending;
  if not t.pumping then begin
    t.pumping <- true;
    Engine.schedule_at t.engine
      (Float.max (Engine.now t.engine) t.clock.busy_until)
      t.pump
  end

(* Total busy time is *defined* as the fold over the per-category array, so
   the profiler invariant "category totals sum exactly to busy time" holds
   by construction (same floats, same addition order). *)
let total_busy t = Array.fold_left ( +. ) 0.0 t.busy_by_cat

let busy_seconds t = Array.copy t.busy_by_cat
