let block_size = 64

let normalise_key key =
  let key = if String.length key > block_size then Digest.string key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\000'

let xor_with byte s = String.map (fun c -> Char.chr (Char.code c lxor byte)) s

(* Pre-xored inner/outer pads for a key, so repeated MACs under the same
   key (the common case: per-pair session keys) skip key normalisation. *)
type keyed = { ipad : string; opad : string }

let prepare key =
  let key = normalise_key key in
  { ipad = xor_with 0x36 key; opad = xor_with 0x5c key }

let mac ~key msg =
  let k = prepare key in
  Digest.string (k.opad ^ Digest.string (k.ipad ^ msg))

let hex ~key msg = Md5.to_hex (mac ~key msg)
