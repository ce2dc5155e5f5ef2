module Codec = Bft_util.Codec
module Fingerprint = Bft_crypto.Fingerprint

type t = { data : string; pad : int }

let of_string data = { data; pad = 0 }

let zeros n =
  if n < 0 then invalid_arg "Payload.zeros";
  { data = ""; pad = n }

let empty = { data = ""; pad = 0 }

let size t = String.length t.data + t.pad

let pad_part = function 0 -> "pad:0" | pad -> "pad:" ^ string_of_int pad

let digest_parts t = Fingerprint.of_parts [ t.data; pad_part t.pad ]

(* The null service returns the empty payload on every operation, and
   every client and non-designated replier digests it; the digest is
   computed once here and its 5 bytes noted on each use, as computing it
   would. *)
let empty_digest = digest_parts empty

let empty_fed = String.length (pad_part 0)

let digest t =
  if t.pad = 0 && String.length t.data = 0 then begin
    Bft_crypto.Tally.note_digest empty_fed;
    empty_digest
  end
  else digest_parts t

let equal a b = a.data = b.data && a.pad = b.pad

let encode enc t =
  Codec.Enc.bytes enc t.data;
  Codec.Enc.u32 enc t.pad

let decode dec =
  let data = Codec.Dec.bytes dec in
  let pad = Codec.Dec.u32 dec in
  { data; pad }
