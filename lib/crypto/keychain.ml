type principal = int

module Dense = Bft_util.Dense

type deployment = { replicas : int; client_base : int; mutable clients : int }

let deployment ~replicas ~client_base =
  if replicas < 1 || client_base < replicas then
    invalid_arg "Keychain.deployment: clients must follow the replicas";
  { replicas; client_base; clients = 0 }

let admit_client d =
  let principal = d.client_base + d.clients in
  d.clients <- d.clients + 1;
  principal

(* One direction of a pairwise channel: the key of [epoch] and its prepared
   MAC state. Re-derived in place when the epoch moves on. *)
type channel = { mutable epoch : int; mutable key : string; mutable mac : Mac.session }

(* Per-peer state sits at the peer's dense index (see [peer_index]); each
   array grows to the highest index this principal has used. *)
type t = {
  master : string;
  self_id : principal;
  peers : deployment;
  mutable inbound_epoch : int;
  mutable peer_epochs : int array; (* epochs peers announced *)
  mutable send_channels : channel option array;
  mutable recv_channels : channel option array;
}

let create ~master ~self peers =
  {
    master;
    self_id = self;
    peers;
    inbound_epoch = 0;
    peer_epochs = [||];
    send_channels = [||];
    recv_channels = [||];
  }

let self t = t.self_id

let peer_index t peer =
  let d = t.peers in
  if peer >= 0 && peer < d.replicas then peer
  else
    let offset = peer - d.client_base in
    if offset >= 0 && offset < d.clients then d.replicas + offset else -1

let index_exn t peer =
  let i = peer_index t peer in
  if i < 0 then invalid_arg "Keychain: principal outside the deployment";
  i

(* The directed key for sender [src] -> receiver [dst] at the receiver's
   inbound epoch. Both ends derive the same 16-byte key. *)
let derive master ~src ~dst ~epoch =
  Hmac.mac ~key:master (Printf.sprintf "session:%d->%d@%d" src dst epoch)

let peer_epoch t i = if i < Array.length t.peer_epochs then t.peer_epochs.(i) else 0

(* Derivation runs a full HMAC and preparation two MD5 blocks, so both are
   done once per (peer, epoch); a warm lookup is an array load. *)
let channel channels i ~epoch ~src ~dst master =
  match channels.(i) with
  | Some s when s.epoch = epoch -> s
  | Some s ->
    let key = derive master ~src ~dst ~epoch in
    s.epoch <- epoch;
    s.key <- key;
    s.mac <- Mac.prepare key;
    s
  | None ->
    let key = derive master ~src ~dst ~epoch in
    let s = { epoch; key; mac = Mac.prepare key } in
    channels.(i) <- Some s;
    s

let send_channel t peer =
  let i = index_exn t peer in
  if i >= Array.length t.send_channels then
    t.send_channels <- Dense.grow t.send_channels i None;
  channel t.send_channels i ~epoch:(peer_epoch t i) ~src:t.self_id ~dst:peer t.master

let recv_channel t peer =
  let i = index_exn t peer in
  if i >= Array.length t.recv_channels then
    t.recv_channels <- Dense.grow t.recv_channels i None;
  let epoch = if i < t.peers.replicas then t.inbound_epoch else 0 in
  channel t.recv_channels i ~epoch ~src:peer ~dst:t.self_id t.master

let send_session t peer = (send_channel t peer).mac

let recv_session t peer = (recv_channel t peer).mac

let send_key t peer = (send_channel t peer).key

let recv_key t peer = (recv_channel t peer).key

let epoch t ~peer:_ = t.inbound_epoch

let refresh t = t.inbound_epoch <- t.inbound_epoch + 1

let observe_epoch t ~peer epoch =
  let i = peer_index t peer in
  if i >= 0 && epoch > peer_epoch t i then begin
    t.peer_epochs <- Dense.grow t.peer_epochs i 0;
    t.peer_epochs.(i) <- epoch
  end
