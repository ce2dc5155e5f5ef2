exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

module Enc = struct
  (* A growable byte array rather than [Buffer.t]: encoders on the hot path
     are long-lived scratch values that get [clear]ed and refilled for every
     message, and readers ([Fingerprint.of_bytes], [Transport]) can consume
     the filled prefix in place via [unsafe_bytes] without materialising an
     intermediate string. The wire bytes produced are identical to the
     historical [Buffer]-based encoder. *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(initial = 64) () =
    { buf = Bytes.create (max initial 16); len = 0 }

  let clear t = t.len <- 0

  let reserve t extra =
    let needed = t.len + extra in
    if needed > Bytes.length t.buf then begin
      let cap = ref (max 16 (Bytes.length t.buf * 2)) in
      while !cap < needed do
        cap := !cap * 2
      done;
      let buf = Bytes.create !cap in
      Bytes.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end

  let u8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Enc.u8";
    reserve t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr v);
    t.len <- t.len + 1

  let u16 t v =
    if v < 0 || v > 0xFFFF then invalid_arg "Enc.u16";
    reserve t 2;
    Bytes.set_uint16_le t.buf t.len v;
    t.len <- t.len + 2

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Enc.u32";
    reserve t 4;
    Bytes.set_int32_le t.buf t.len (Int32.of_int v);
    t.len <- t.len + 4

  let u64 t v =
    reserve t 8;
    Bytes.set_int64_le t.buf t.len v;
    t.len <- t.len + 8

  let int t v =
    if v < 0 then invalid_arg "Enc.int: negative";
    u64 t (Int64.of_int v)

  let f64 t v = u64 t (Int64.bits_of_float v)

  let raw t s =
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let bytes_sub t s ~off ~len =
    if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Enc.bytes_sub";
    u32 t len;
    reserve t len;
    Bytes.blit_string s off t.buf t.len len;
    t.len <- t.len + len

  let bytes t s =
    u32 t (String.length s);
    raw t s

  let bool t b = u8 t (if b then 1 else 0)

  let option t f = function
    | None -> u8 t 0
    | Some v ->
      u8 t 1;
      f t v

  let list t f l =
    u32 t (List.length l);
    List.iter (f t) l

  let to_string t = Bytes.sub_string t.buf 0 t.len

  let contents t =
    let s =
      if t.len < Bytes.length t.buf then to_string t
      else begin
        (* Exactly full: hand the storage over instead of copying it; the
           encoder keeps no alias to the string it returns. *)
        let s = Bytes.unsafe_to_string t.buf in
        t.buf <- Bytes.empty;
        s
      end
    in
    t.len <- 0;
    s

  let length t = t.len

  let unsafe_bytes t = t.buf
end

module Dec = struct
  type t = { src : string; mutable pos : int }

  let of_string src = { src; pos = 0 }

  let need t n =
    if n < 0 then fail "negative length";
    if t.pos + n > String.length t.src then
      fail "truncated input: need %d bytes at %d, have %d" n t.pos
        (String.length t.src - t.pos)

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = String.get_uint16_le t.src t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (String.get_int32_le t.src t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let u64 t =
    need t 8;
    let v = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    v

  let int t =
    let v = u64 t in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
      fail "int out of range";
    Int64.to_int v

  let f64 t = Int64.float_of_bits (u64 t)

  let raw t n =
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let bytes t =
    let n = u32 t in
    raw t n

  let bytes_span t =
    let n = u32 t in
    need t n;
    let off = t.pos in
    t.pos <- t.pos + n;
    (off, n)

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | v -> fail "bad bool tag %d" v

  let option t f =
    match u8 t with
    | 0 -> None
    | 1 -> Some (f t)
    | v -> fail "bad option tag %d" v

  let list t f =
    let n = u32 t in
    (* Guard against absurd lengths before allocating. *)
    if n > String.length t.src - t.pos then fail "list length %d exceeds input" n;
    List.init n (fun _ -> f t)

  let position t = t.pos

  let at_end t = t.pos = String.length t.src

  let expect_end t = if not (at_end t) then fail "trailing bytes at %d" t.pos
end

let roundtrip_check enc dec v =
  let e = Enc.create () in
  enc e v;
  let d = Dec.of_string (Enc.to_string e) in
  let v' = dec d in
  Dec.at_end d && v = v'
