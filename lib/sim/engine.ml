module Heap = Bft_util.Heap
module Trace = Bft_trace.Trace

type t = {
  mutable clock : float;
  queue : (unit -> unit) Heap.t;
  mutable stopped : bool;
  mutable trace : Trace.t;
}

let create () =
  { clock = 0.0; queue = Heap.create (); stopped = false; trace = Trace.nil }

let now t = t.clock

let set_trace t trace = t.trace <- trace

let enqueue t time fn = Heap.add t.queue ~priority:(Float.max time t.clock) fn

let schedule_at t time fn = ignore (enqueue t time fn : _ Heap.entry)

let schedule t ~delay fn = schedule_at t (t.clock +. delay) fn

type event = { heap : (unit -> unit) Heap.t; entry : (unit -> unit) Heap.entry }

let schedule_event t ~delay fn =
  { heap = t.queue; entry = enqueue t (t.clock +. delay) fn }

let cancel ev = Heap.remove ev.heap ev.entry

let is_scheduled ev = Heap.mem ev.entry

let no_event =
  let heap = Heap.create () in
  let entry = Heap.add heap ~priority:0.0 ignore in
  Heap.remove heap entry;
  { heap; entry }

let pending t = Heap.length t.queue

(* The caller has checked that the queue is not empty. *)
let fire_next t time =
  let fn = Heap.pop t.queue in
  t.clock <- Float.max t.clock time;
  if Trace.sim_events t.trace then
    Trace.emit t.trace ~vtime:t.clock ~node:(-1) Trace.Sim_fire;
  fn ()

let step t =
  if Heap.is_empty t.queue then false
  else begin
    fire_next t (Heap.min_priority t.queue);
    true
  end

let run ?until ?max_events t =
  t.stopped <- false;
  let fired = ref 0 in
  let budget_left () =
    match max_events with None -> true | Some m -> !fired < m
  in
  let continue = ref true in
  while !continue && (not t.stopped) && budget_left () do
    if Heap.is_empty t.queue then continue := false
    else begin
      let time = Heap.min_priority t.queue in
      match until with
      | Some limit when time > limit ->
        t.clock <- Float.max t.clock limit;
        continue := false
      | _ ->
        fire_next t time;
        incr fired
    end
  done;
  match until with
  | Some limit when (not t.stopped) && budget_left () ->
    t.clock <- Float.max t.clock limit
  | _ -> ()

let stop t = t.stopped <- true
