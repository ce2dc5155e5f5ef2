(* Fixed-cadence time series of counter/gauge snapshots.

   A [Series.t] is a bounded ring of (virtual time, values) samples with a
   fixed column set declared at creation. The sampling cadence lives with
   the caller (normally an engine timer): this module only stores and
   renders, which keeps bft_trace independent of the simulator. Rendering
   uses fixed float formats so equal series export byte-identically. *)

type t = {
  names : string array;
  capacity : int;
  times : float array;
  ring : float array array; (* sample slot -> values (length = names) *)
  mutable total_ : int;
}

let create ?(capacity = 4096) ~names () =
  if capacity <= 0 then invalid_arg "Series.create: capacity";
  if Array.length names = 0 then invalid_arg "Series.create: no columns";
  {
    names = Array.copy names;
    capacity;
    times = Array.make capacity 0.0;
    ring = Array.make capacity [||];
    total_ = 0;
  }

let record t ~vtime values =
  if Array.length values <> Array.length t.names then
    invalid_arg "Series.record: column arity mismatch";
  let slot = t.total_ mod t.capacity in
  t.times.(slot) <- vtime;
  t.ring.(slot) <- Array.copy values;
  t.total_ <- t.total_ + 1

let total t = t.total_

let length t = Stdlib.min t.total_ t.capacity

let dropped t = t.total_ - length t

let iter t f =
  let n = length t in
  let first = t.total_ - n in
  for i = first to t.total_ - 1 do
    let slot = i mod t.capacity in
    f t.times.(slot) t.ring.(slot)
  done

let samples t =
  let acc = ref [] in
  iter t (fun vtime values -> acc := (vtime, Array.copy values) :: !acc);
  List.rev !acc

let jsonl t =
  let b = Buffer.create 4096 in
  iter t (fun vtime values ->
      Buffer.add_string b (Printf.sprintf "{\"t\":%.9f" vtime);
      Array.iteri
        (fun i v ->
          Buffer.add_string b
            (Printf.sprintf ",\"%s\":%.9g" (Trace.escape t.names.(i)) v))
        values;
      Buffer.add_string b "}\n");
  Buffer.contents b
