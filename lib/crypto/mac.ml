type tag = string

let tag_size = 8

(* MAC keys are long-lived session keys, so the HMAC pads are cached per
   key and the hash-input scratch is reused. The tag bytes produced are
   identical to [Hmac.mac ~key (nonce_le ^ msg)] truncated to [tag_size]. *)
let keyed_cache : (string, Hmac.keyed) Hashtbl.t = Hashtbl.create 64

let keyed key =
  match Hashtbl.find_opt keyed_cache key with
  | Some k -> k
  | None ->
    (* Bounded: derived keys are per (pair, epoch), but guard anyway. *)
    if Hashtbl.length keyed_cache > 4096 then Hashtbl.reset keyed_cache;
    let k = Hmac.prepare key in
    Hashtbl.replace keyed_cache key k;
    k

(* Staging for one hash input at a time: [ipad ‖ nonce_le ‖ msg] for the
   inner hash, then [opad ‖ inner] for the outer one. Grown on demand and
   reused, since MACs never nest. *)
let scratch = ref (Bytes.create 1024)

let compute_tag ~key ~nonce msg =
  let k = keyed key in
  let pad = String.length k.Hmac.ipad and len = String.length msg in
  let inner_len = pad + 8 + len in
  if inner_len > Bytes.length !scratch then
    scratch := Bytes.create (Stdlib.max inner_len (2 * Bytes.length !scratch));
  let buf = !scratch in
  Bytes.blit_string k.Hmac.ipad 0 buf 0 pad;
  Bytes.set_int64_le buf pad nonce;
  Bytes.blit_string msg 0 buf (pad + 8) len;
  let inner = Digest.subbytes buf 0 inner_len in
  Bytes.blit_string k.Hmac.opad 0 buf 0 pad;
  Bytes.blit_string inner 0 buf pad 16;
  String.sub (Digest.subbytes buf 0 (pad + 16)) 0 tag_size

let compute ~key ~nonce msg =
  Tally.note_mac_gen (String.length msg);
  compute_tag ~key ~nonce msg

let equal a b =
  (* Constant-time over the common length to avoid timing oracles. *)
  let n = String.length a in
  n = String.length b
  &&
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc lor (Char.code (String.unsafe_get a i) lxor Char.code (String.unsafe_get b i))
  done;
  !acc = 0

let verify ~key ~nonce msg tag =
  Tally.note_mac_verify (String.length msg);
  equal (compute_tag ~key ~nonce msg) tag
