type principal = int

module Int_tbl = Hashtbl.Make (Int)

(* One direction of a pairwise channel: the key of [epoch] and its prepared
   MAC state. Re-derived in place when the epoch moves on. *)
type channel = { mutable epoch : int; mutable key : string; mutable mac : Mac.session }

type t = {
  master : string;
  self_id : principal;
  replica_bound : int;
  mutable inbound_epoch : int;
  peer_epochs : int Int_tbl.t; (* epochs peers announced *)
  send_channels : channel Int_tbl.t;
  recv_channels : channel Int_tbl.t;
}

let create ~master ~self ?(replica_bound = max_int) () = {
  master;
  self_id = self;
  replica_bound;
  inbound_epoch = 0;
  peer_epochs = Int_tbl.create 16;
  send_channels = Int_tbl.create 16;
  recv_channels = Int_tbl.create 16;
}

let self t = t.self_id

(* The directed key for sender [src] -> receiver [dst] at the receiver's
   inbound epoch. Both ends derive the same 16-byte key. *)
let derive master ~src ~dst ~epoch =
  Hmac.mac ~key:master (Printf.sprintf "session:%d->%d@%d" src dst epoch)

let peer_epoch t peer =
  match Int_tbl.find t.peer_epochs peer with e -> e | exception Not_found -> 0

(* Derivation runs a full HMAC and preparation two MD5 blocks, so both are
   done once per (peer, epoch); a warm lookup is one int-keyed probe. *)
let channel channels peer ~epoch ~src ~dst master =
  match Int_tbl.find channels peer with
  | s when s.epoch = epoch -> s
  | s ->
    let key = derive master ~src ~dst ~epoch in
    s.epoch <- epoch;
    s.key <- key;
    s.mac <- Mac.prepare key;
    s
  | exception Not_found ->
    let key = derive master ~src ~dst ~epoch in
    let s = { epoch; key; mac = Mac.prepare key } in
    Int_tbl.replace channels peer s;
    s

let send_channel t peer =
  channel t.send_channels peer ~epoch:(peer_epoch t peer) ~src:t.self_id ~dst:peer
    t.master

let recv_channel t peer =
  let epoch = if peer < t.replica_bound then t.inbound_epoch else 0 in
  channel t.recv_channels peer ~epoch ~src:peer ~dst:t.self_id t.master

let send_session t peer = (send_channel t peer).mac

let recv_session t peer = (recv_channel t peer).mac

let send_key t peer = (send_channel t peer).key

let recv_key t peer = (recv_channel t peer).key

let epoch t ~peer:_ = t.inbound_epoch

let refresh t = t.inbound_epoch <- t.inbound_epoch + 1

let observe_epoch t ~peer epoch =
  if epoch > peer_epoch t peer then Int_tbl.replace t.peer_epochs peer epoch
