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

(* [tags] holds the true tag for the [i]-th target at [i * Mac.tag_size],
   computed under [sessions.(i)]. *)
type origin = {
  covered : string;
  sent_nonce : int64;
  targets : Keychain.principal list;
  tags : string;
  sessions : Mac.session array;
}

let covered o = o.covered

(* Fills the slots of a sessions array before [seal_entries] writes them. *)
let placeholder = Mac.prepare ""

let flip_at b i = Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01))

(* The entries of [generate], appended to [enc] in [encode]'s format, from
   the [i]-th target on. *)
let rec seal_entries enc keychain ~nonce ~corrupt msg tags sessions i = function
  | [] -> ()
  | peer :: rest ->
    let s = Keychain.send_session keychain peer in
    sessions.(i) <- s;
    let tag = Mac.compute_with s ~nonce msg in
    Bytes.blit_string tag 0 tags (i * Mac.tag_size) Mac.tag_size;
    Codec.Enc.u16 enc peer;
    let at = Codec.Enc.length enc in
    Codec.Enc.raw enc tag;
    (* [corrupt]'s bit flip, after the true tag is kept *)
    if corrupt then flip_at (Codec.Enc.unsafe_bytes enc) at;
    seal_entries enc keychain ~nonce ~corrupt msg tags sessions (i + 1) rest

let seal enc keychain ~nonce ~targets ~corrupt msg =
  let n = List.length targets in
  let tags = Bytes.create (n * Mac.tag_size) and sessions = Array.make n placeholder in
  Codec.Enc.u64 enc nonce;
  Codec.Enc.u32 enc n;
  seal_entries enc keychain ~nonce ~corrupt msg tags sessions 0 targets;
  { covered = msg; sent_nonce = nonce; targets; tags = Bytes.unsafe_to_string tags; sessions }

(* The tag addressed to [self]: the first entry with that id. *)
let rec own_tag self = function
  | [] -> raise_notrace Not_found
  | (id, tag) :: rest -> if Int.equal id self then tag else own_tag self rest

(* The index of the first of [wire]'s entries addressed to [self] if the
   sender computed it under [session] itself, else [-1]. [targets] and
   [sessions] are in [wire]'s entry order, from index [i]. *)
let rec recorded_index self session wire targets sessions i =
  match (wire, targets) with
  | (id, _) :: wire, target :: targets ->
    if Int.equal id self then
      if Int.equal target self && i < Array.length sessions && sessions.(i) == session
      then i
      else -1
    else recorded_index self session wire targets sessions (i + 1)
  | _ -> -1

(* Whether [tag] is the [Mac.tag_size] bytes of [tags] at [off], in
   constant time. *)
let tag_at tag tags off =
  String.length tag = Mac.tag_size
  &&
  let acc = ref 0 in
  for k = 0 to Mac.tag_size - 1 do
    acc :=
      !acc lor (Char.code (String.unsafe_get tag k) lxor Char.code (String.get tags (off + k)))
  done;
  !acc = 0

let check ?origin keychain ~from msg t =
  Keychain.peer_index keychain from >= 0
  &&
  let self = Keychain.self keychain in
  match own_tag self t.entries with
  | exception Not_found -> false
  | tag -> (
    let session = Keychain.recv_session keychain from in
    (* A tag is a function of the session, the nonce and the message: when
       all three are the ones the sender used, the tag it computed decides
       the check. *)
    let recorded =
      match origin with
      | Some o when Int64.equal o.sent_nonce t.nonce && String.equal o.covered msg ->
        recorded_index self session t.entries o.targets o.sessions 0
      | _ -> -1
    in
    if recorded < 0 then Mac.verify_with session ~nonce:t.nonce msg tag
    else begin
      Tally.note_mac_verify (String.length msg);
      tag_at tag (Option.get origin).tags (recorded * Mac.tag_size)
    end)

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
