type principal = int

module Dense = Bft_util.Dense

(* One direction of a pairwise channel: the epoch it was derived for and
   the prepared MAC state of its key. Never mutated: a new epoch replaces
   the channel in its slot. *)
type channel = { epoch : int; session : Mac.session }

(* An empty slot: no epoch is negative, so every lookup misses it. *)
let vacant = { epoch = -1; session = Mac.prepare "" }

(* The channels derived from one master secret, each at its pair's
   canonical slot (see [slot]) and read by both of its ends. *)
type ring = { master : string; mutable channels : channel array }

type deployment = {
  replicas : int;
  client_base : int;
  mutable clients : int;
  mutable rings : ring list;  (* one per master a keychain was built from *)
}

let deployment ~replicas ~client_base =
  if replicas < 1 || client_base < replicas then
    invalid_arg "Keychain.deployment: clients must follow the replicas";
  { replicas; client_base; clients = 0; rings = [] }

let admit_client d =
  let principal = d.client_base + d.clients in
  d.clients <- d.clients + 1;
  principal

(* Per-peer state sits at the peer's dense index (see [peer_index]); each
   array grows to the highest index this principal has used. The channels
   themselves are the deployment's. *)
type t = {
  self_id : principal;
  peers : deployment;
  ring : ring;
  mutable inbound_epoch : int;
  mutable peer_epochs : int array; (* epochs peers announced *)
}

let ring_of d master =
  match List.find_opt (fun r -> String.equal r.master master) d.rings with
  | Some r -> r
  | None ->
    let r = { master; channels = [||] } in
    d.rings <- r :: d.rings;
    r

let create ~master ~self peers =
  {
    self_id = self;
    peers;
    ring = ring_of peers master;
    inbound_epoch = 0;
    peer_epochs = [||];
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

(* The slot of channel [a -> b], by dense indices: the replica pairs
   first, then each client's channel to and from each replica in turn.
   Clients never talk to clients, so a pair of them, or a principal outside
   the deployment, has none (-1). *)
let slot d a b =
  let r = d.replicas in
  if a < 0 || b < 0 then -1
  else if a < r then if b < r then (a * r) + b else (r * r) + (2 * (((b - r) * r) + a)) + 1
  else if b < r then (r * r) + (2 * (((a - r) * r) + b))
  else -1

(* The directed key for sender [src] -> receiver [dst] at the receiver's
   inbound epoch. Both ends derive the same 16-byte key. *)
let derive master ~src ~dst ~epoch =
  Hmac.mac ~key:master (Printf.sprintf "session:%d->%d@%d" src dst epoch)

let peer_epoch t i = if i < Array.length t.peer_epochs then t.peer_epochs.(i) else 0

(* Derivation runs a full HMAC and preparation two MD5 blocks, so both are
   done once per (pair, epoch) for both ends; a warm lookup is an array
   load. An end asking under another epoch than the slot's derives the
   channel again and replaces the slot. *)
let channel master ~src ~dst ~epoch =
  { epoch; session = Mac.prepare (derive master ~src ~dst ~epoch) }

let session t ~src ~dst ~epoch a b =
  let ring = t.ring in
  let s = slot t.peers a b in
  if s < 0 then (channel ring.master ~src ~dst ~epoch).session
  else begin
    if s >= Array.length ring.channels then
      ring.channels <- Dense.grow ring.channels s vacant;
    let c = ring.channels.(s) in
    if c.epoch = epoch then c.session
    else begin
      let c = channel ring.master ~src ~dst ~epoch in
      ring.channels.(s) <- c;
      c.session
    end
  end

(* Ours for a replica peer; client channels never change epoch. *)
let recv_epoch t i = if i < t.peers.replicas then t.inbound_epoch else 0

let send_session t peer =
  let b = index_exn t peer in
  session t ~src:t.self_id ~dst:peer ~epoch:(peer_epoch t b) (peer_index t t.self_id) b

let recv_session t peer =
  let a = index_exn t peer in
  session t ~src:peer ~dst:t.self_id ~epoch:(recv_epoch t a) a (peer_index t t.self_id)

let send_key t peer =
  derive t.ring.master ~src:t.self_id ~dst:peer ~epoch:(peer_epoch t (index_exn t peer))

let recv_key t peer =
  derive t.ring.master ~src:peer ~dst:t.self_id ~epoch:(recv_epoch t (index_exn t peer))

let epoch t ~peer:_ = t.inbound_epoch

let refresh t = t.inbound_epoch <- t.inbound_epoch + 1

let observe_epoch t ~peer epoch =
  let i = peer_index t peer in
  if i >= 0 && epoch > peer_epoch t i then begin
    t.peer_epochs <- Dense.grow t.peer_epochs i 0;
    t.peer_epochs.(i) <- epoch
  end
