type tag = string

let tag_size = 8

(* The MD5 states after the inner and outer pad blocks of one key, laid out
   by the C stub. Immutable once [prepare] has filled it. *)
type session = Bytes.t

external prepared_size : unit -> int = "bft_mac_prepared_size" [@@noalloc]

external prepare_into : string -> string -> Bytes.t -> unit = "bft_mac_prepare"
[@@noalloc]

external tag_into : session -> (int64[@unboxed]) -> string -> Bytes.t -> unit
  = "bft_mac_tag_into_byte" "bft_mac_tag_into"
[@@noalloc]

external verify_tag : session -> (int64[@unboxed]) -> string -> tag -> bool
  = "bft_mac_verify_byte" "bft_mac_verify"
[@@noalloc]

let session_size = prepared_size ()

let prepare key =
  let k = Hmac.prepare key in
  let s = Bytes.create session_size in
  prepare_into k.Hmac.ipad k.Hmac.opad s;
  s

let compute_with s ~nonce msg =
  Tally.note_mac_gen (String.length msg);
  let tag = Bytes.create tag_size in
  tag_into s nonce msg tag;
  Bytes.unsafe_to_string tag

let verify_with s ~nonce msg tag =
  Tally.note_mac_verify (String.length msg);
  verify_tag s nonce msg tag

(* The last key [compute]/[verify] prepared. Protocol traffic goes through
   per-peer sessions; this one-entry cache only spares repeated calls under
   one literal key (tests, the ledger's MAC probe) the preparation. It is a
   pure cache: any key prepares to the same session whenever it misses. *)
let last_key = ref ""

let last_session = ref (prepare "")

let session_of key =
  if not (String.equal key !last_key) then begin
    last_session := prepare key;
    last_key := key
  end;
  !last_session

let compute ~key ~nonce msg = compute_with (session_of key) ~nonce msg

let verify ~key ~nonce msg tag = verify_with (session_of key) ~nonce msg tag

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
