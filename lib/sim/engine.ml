module Heap = Bft_util.Heap
module Trace = Bft_trace.Trace

(* Two queues, one order: [queue] holds deliveries, CPU pumps and every
   other closure that is never withdrawn; [timers] holds the cancellable
   events of [schedule_event]. Both number their insertions from one
   counter, and [next] takes the head that is first by (time, number), so
   events fire in exactly the order one queue would give them. *)
type t = {
  mutable clock : float;
  queue : (unit -> unit) Heap.t;
  timers : (unit -> unit) Heap.t;
  mutable stopped : bool;
  mutable trace : Trace.t;
}

let create () =
  let queue = Heap.create () in
  {
    clock = 0.0;
    queue;
    timers = Heap.create ~tied_to:queue ();
    stopped = false;
    trace = Trace.nil;
  }

let now t = t.clock

let set_trace t trace = t.trace <- trace

(* [Float.max time t.clock] without boxing a new float: [time] itself
   unless it is in the past. *)
let clamp t time = if time < t.clock then t.clock else time

let schedule_at t time fn = Heap.push t.queue ~priority:(clamp t time) fn

let schedule t ~delay fn = schedule_at t (t.clock +. delay) fn

type event = { heap : (unit -> unit) Heap.t; entry : (unit -> unit) Heap.entry }

let schedule_event t ~delay fn =
  { heap = t.timers; entry = Heap.add t.timers ~priority:(clamp t (t.clock +. delay)) fn }

let cancel ev = Heap.remove ev.heap ev.entry

let is_scheduled ev = Heap.mem ev.entry

let no_event =
  let heap = Heap.create () in
  let entry = Heap.add heap ~priority:0.0 ignore in
  Heap.remove heap entry;
  { heap; entry }

let pending t = Heap.length t.queue + Heap.length t.timers

(* The queue whose head fires next; the caller has checked that one of
   them is not empty. *)
let next t =
  if Heap.is_empty t.timers then t.queue
  else if Heap.is_empty t.queue || Heap.head_before t.timers t.queue then t.timers
  else t.queue

let is_idle t = Heap.is_empty t.queue && Heap.is_empty t.timers

(* [time] is [heap]'s head's. No queued event is earlier than the clock,
   so the clock moves to [time]; a NaN time sets it to NaN, as
   [Float.max] would. *)
let fire_next t heap time =
  let fn = Heap.pop heap in
  if not (time < t.clock) then t.clock <- time;
  if Trace.sim_events t.trace then
    Trace.emit t.trace ~vtime:t.clock ~node:(-1) Trace.Sim_fire;
  fn ()

let step t =
  if is_idle t then false
  else begin
    let heap = next t in
    fire_next t heap (Heap.min_priority heap);
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
    if is_idle t then continue := false
    else begin
      let heap = next t in
      let time = Heap.min_priority heap in
      match until with
      | Some limit when time > limit ->
        t.clock <- Float.max t.clock limit;
        continue := false
      | _ ->
        fire_next t heap time;
        incr fired
    end
  done;
  match until with
  | Some limit when (not t.stopped) && budget_left () ->
    t.clock <- Float.max t.clock limit
  | _ -> ()

let stop t = t.stopped <- true
