(* Sender [i]'s window at [i * stride]: [highest] at offset 0, [bits] at 8
   (bit [k] = [highest - k] seen), and at 16 a byte set once the sender's
   first nonce is recorded. *)
let stride = 17

let size = 64

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

type t = { mutable windows : Bytes.t }

type status = Fresh | Seen | Stale

let create () = { windows = Bytes.empty }

let status t sender nonce =
  let w = t.windows and o = sender * stride in
  if o >= Bytes.length w || Bytes.get w (o + 16) = '\000' then Fresh
  else
    let highest = get64 w o in
    if Int64.compare nonce highest > 0 then Fresh
    else
      let age = Int64.to_int (Int64.sub highest nonce) in
      if age >= size then Stale
      else if Int64.logand (get64 w (o + 8)) (Int64.shift_left 1L age) <> 0L then Seen
      else Fresh

let record t sender nonce =
  let o = sender * stride in
  if o >= Bytes.length t.windows then
    t.windows <- Bft_util.Dense.grow_bytes t.windows (o + stride);
  let w = t.windows in
  Bytes.set w (o + 16) '\001';
  let highest = get64 w o and bits = get64 w (o + 8) in
  if Int64.compare nonce highest > 0 then begin
    let shift = Int64.sub nonce highest in
    let bits =
      if Int64.compare shift (Int64.of_int size) >= 0 then 0L
      else Int64.shift_left bits (Int64.to_int shift)
    in
    set64 w (o + 8) (Int64.logor bits 1L);
    set64 w o nonce
  end
  else
    let age = Int64.to_int (Int64.sub highest nonce) in
    set64 w (o + 8) (Int64.logor bits (Int64.shift_left 1L age))
