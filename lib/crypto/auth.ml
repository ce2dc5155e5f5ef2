module Codec = Bft_util.Codec

type t = { nonce : int64; entries : (Keychain.principal * Mac.tag) list }

let generate keychain ~nonce ~targets msg =
  let entries =
    List.map
      (fun peer ->
        (peer, Mac.compute_with (Keychain.send_session keychain peer) ~nonce msg))
      targets
  in
  { nonce; entries }

(* The tag addressed to [self]: the first entry with that id. *)
let rec own_tag self = function
  | [] -> raise_notrace Not_found
  | (id, tag) :: rest -> if Int.equal id self then tag else own_tag self rest

let check keychain ~from msg t =
  match own_tag (Keychain.self keychain) t.entries with
  | tag -> Mac.verify_with (Keychain.recv_session keychain from) ~nonce:t.nonce msg tag
  | exception Not_found -> false

let single keychain ~nonce ~to_ msg = generate keychain ~nonce ~targets:[ to_ ] msg

(* nonce (8) + count (4) + per entry: principal id (2) + tag. *)
let wire_size_for ~entries = 8 + 4 + (entries * (2 + Mac.tag_size))

let wire_size t = wire_size_for ~entries:(List.length t.entries)

let encode enc t =
  Codec.Enc.u64 enc t.nonce;
  Codec.Enc.list enc
    (fun enc (id, tag) ->
      Codec.Enc.u16 enc id;
      Codec.Enc.raw enc tag)
    t.entries

let decode dec =
  let nonce = Codec.Dec.u64 dec in
  let entries =
    Codec.Dec.list dec (fun dec ->
        let id = Codec.Dec.u16 dec in
        let tag = Codec.Dec.raw dec Mac.tag_size in
        (id, tag))
  in
  { nonce; entries }

let corrupt t =
  let flip tag =
    let b = Bytes.of_string tag in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
    Bytes.to_string b
  in
  { t with entries = List.map (fun (id, tag) -> (id, flip tag)) t.entries }
