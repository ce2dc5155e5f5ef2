type t = string

let size = 16

let of_string s =
  Tally.note_digest (String.length s);
  Digest.string s

let of_substring s ~off ~len =
  Tally.note_digest len;
  Digest.substring s off len

let of_bytes b ~off ~len =
  Tally.note_digest len;
  Digest.subbytes b off len

(* Multi-part digests frame every part with a little-endian 64-bit length,
   so part boundaries are unambiguous. [builder] stages the framed parts in
   one reusable scratch buffer, grown on demand, and digests it with one
   call in [finish]; hot paths feed scratch buffers without first
   materialising part strings. *)
type builder = { mutable buf : Bytes.t; mutable pos : int; mutable fed : int }

let create_builder () = { buf = Bytes.create 256; pos = 0; fed = 0 }

let reset_builder b =
  b.pos <- 0;
  b.fed <- 0

(* Append the length prefix and leave room for the [len] part bytes. *)
let add_len b len =
  let need = b.pos + 8 + len in
  if need > Bytes.length b.buf then begin
    let buf = Bytes.create (Stdlib.max need (2 * Bytes.length b.buf)) in
    Bytes.blit b.buf 0 buf 0 b.pos;
    b.buf <- buf
  end;
  Bytes.set_int64_le b.buf b.pos (Int64.of_int len);
  b.pos <- b.pos + 8;
  b.fed <- b.fed + len

let add_part b part =
  let len = String.length part in
  add_len b len;
  Bytes.blit_string part 0 b.buf b.pos len;
  b.pos <- b.pos + len

let add_part_bytes b buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Fingerprint.add_part_bytes";
  add_len b len;
  Bytes.blit buf off b.buf b.pos len;
  b.pos <- b.pos + len

let finish b =
  Tally.note_digest b.fed;
  Digest.subbytes b.buf 0 b.pos

(* Module-level scratch for [of_parts]: its contents never outlive one
   call, so no run can observe another's. *)
let parts_builder = create_builder ()

let of_parts parts =
  reset_builder parts_builder;
  List.iter (add_part parts_builder) parts;
  finish parts_builder

let equal = String.equal

let zero = String.make size '\000'

let pp fmt t = Format.pp_print_string fmt (String.sub (Md5.to_hex t) 0 8)
