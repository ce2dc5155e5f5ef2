(* Wall-clock spans around the benchmark's own calls into each layer, kept
   in memory and written as JSONL when the traced run ends. Times come from
   bechamel's monotonic clock, the clock Runtime_events stamps GC phases
   with, so GC phases nest under the span they interrupted. Recording is
   off unless [enable] was called; a disabled [with_] only runs [f]. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_ns : int64;
  mutable stop_ns : int64;
}

let now_ns () = Monotonic_clock.now ()

let on = ref false

let recorded : span list ref = ref [] (* newest first *)

let open_ids = ref [ 0 ]

let next_id = ref 1

let enable () = on := true

let current () = List.hd !open_ids

let push ~name ~parent ~start_ns ~stop_ns =
  let span = { id = !next_id; parent; name; start_ns; stop_ns } in
  incr next_id;
  recorded := span :: !recorded;
  span

(* Record a finished span, e.g. a GC phase read after the fact. *)
let add ~name ~parent ~start_ns ~stop_ns =
  ignore (push ~name ~parent ~start_ns ~stop_ns : span)

let with_ name f =
  if not !on then f ()
  else begin
    let span = push ~name ~parent:(current ()) ~start_ns:(now_ns ()) ~stop_ns:0L in
    open_ids := span.id :: !open_ids;
    Fun.protect
      ~finally:(fun () ->
        span.stop_ns <- now_ns ();
        open_ids := List.tl !open_ids)
      f
  end

let all () = List.rev !recorded

let duration s = Int64.sub s.stop_ns s.start_ns

(* A span's self time: its duration minus what its children cover. *)
let self_ns spans s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then Int64.sub acc (duration c) else acc)
    (duration s) spans

let write path =
  let spans = all () in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%Ld}\n"
        s.id s.parent s.name s.start_ns s.stop_ns (self_ns spans s))
    spans;
  close_out oc
