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

let digest t = Fingerprint.of_parts [ t.data; pad_part t.pad ]

let equal a b = a.data = b.data && a.pad = b.pad

let encode enc t =
  Codec.Enc.bytes enc t.data;
  Codec.Enc.u32 enc t.pad

let decode dec =
  let data = Codec.Dec.bytes dec in
  let pad = Codec.Dec.u32 dec in
  { data; pad }
