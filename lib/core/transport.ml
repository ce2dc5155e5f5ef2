module Network = Bft_net.Network
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration
module Fingerprint = Bft_crypto.Fingerprint
module Auth = Bft_crypto.Auth
module Keychain = Bft_crypto.Keychain

type peer = { principal : int; node : Network.node_id }

type verdict = Accepted | Replayed | Rejected

(* Anti-replay state per sender: highest nonce accepted plus a bitmap over
   the [nonce_window_size] nonces below it (bit [i] = [highest - i] seen).
   Senders draw nonces from a per-transport monotonic counter and the
   simulated network delivers each (src, dst) link in FIFO order, so a
   bounded window cannot reject a first delivery; anything below the window
   is necessarily a replay. *)
type nonce_window = { mutable highest : int64; mutable bits : int64 }

let nonce_window_size = 64

module Int_tbl = Hashtbl.Make (Int)

type t = {
  net : Network.t;
  keychain : Keychain.t;
  node : Network.node_id;
  pk_mode : bool;
  mutable nonce : int64;
  scratch : Bft_util.Codec.Enc.t; (* wire assembly buffer, one per sender *)
  windows : nonce_window Int_tbl.t; (* sender -> anti-replay state *)
  mutable corrupt_auth : bool;
}

let create net ~keychain ~node ?(public_key_signatures = false) () =
  {
    net;
    keychain;
    node;
    pk_mode = public_key_signatures;
    nonce = 0L;
    scratch = Bft_util.Codec.Enc.create ~initial:1024 ();
    windows = Int_tbl.create 16;
    corrupt_auth = false;
  }

let principal t = Keychain.self t.keychain

let node t = t.node

let cpu t = Network.node_cpu t.net t.node

let engine t = Network.engine t.net

let network t = t.net

let calibration t = Network.calibration t.net

let keychain t = t.keychain

let set_corrupt_auth t b = t.corrupt_auth <- b

let next_nonce t =
  t.nonce <- Int64.add t.nonce 1L;
  t.nonce

(* Authentication covers the digest of the envelope prefix, so big payloads
   are hashed once and MACed cheaply — the scheme the paper relies on. *)
let charge_send_crypto t ~size ~targets =
  let cal = calibration t in
  let c = cpu t in
  Cpu.charge ~cat:Cpu.Digest c (Calibration.digest_cost cal size);
  if t.pk_mode then
    Cpu.charge ~cat:Cpu.Mac_gen c cal.Calibration.pk_sign_cost
  else begin
    Cpu.charge ~cat:Cpu.Mac_gen c
      (float_of_int targets *. Calibration.mac_cost cal Fingerprint.size);
    Cpu.charge ~cat:Cpu.Other c cal.Calibration.protocol_op_cost
  end

let charge_recv_crypto t ~size =
  let cal = calibration t in
  let c = cpu t in
  Cpu.charge ~cat:Cpu.Digest c (Calibration.digest_cost cal size);
  if t.pk_mode then
    Cpu.charge ~cat:Cpu.Mac_verify c cal.Calibration.pk_verify_cost
  else begin
    Cpu.charge ~cat:Cpu.Mac_verify c
      (Calibration.mac_cost cal Fingerprint.size);
    Cpu.charge ~cat:Cpu.Other c cal.Calibration.protocol_op_cost
  end

let build t ~commits ~targets msg =
  (* Assemble the whole wire in the per-transport scratch buffer: encode
     the prefix, fingerprint it in place, then append the authenticator —
     the only string allocated is the final wire. *)
  let enc = t.scratch in
  Message.encode_prefix_into enc ~sender:(principal t) ~msg ~commits;
  let module Enc = Bft_util.Codec.Enc in
  let fp =
    Fingerprint.of_bytes (Enc.unsafe_bytes enc) ~off:0 ~len:(Enc.length enc)
  in
  let auth = Auth.generate t.keychain ~nonce:(next_nonce t) ~targets fp in
  let auth = if t.corrupt_auth then Auth.corrupt auth else auth in
  Auth.encode enc auth;
  let wire = Enc.to_string enc in
  (wire, String.length wire + Message.padding msg)

let send t ~dst msg =
  let wire, size = build t ~commits:[] ~targets:[ dst.principal ] msg in
  charge_send_crypto t ~size ~targets:1;
  Network.send t.net ~src:t.node ~dst:dst.node ~size wire

let multicast t ?(commits = []) ~dsts msg =
  let targets = List.map (fun (p : peer) -> p.principal) dsts in
  let wire, size = build t ~commits ~targets msg in
  charge_send_crypto t ~size ~targets:(List.length targets);
  let nodes =
    List.sort_uniq Int.compare (List.map (fun (p : peer) -> p.node) dsts)
  in
  Network.multicast t.net ~src:t.node ~dsts:nodes ~size wire

let nonce_status t ~from nonce =
  match Int_tbl.find t.windows from with
  | exception Not_found -> `Fresh
  | w ->
    if Int64.compare nonce w.highest > 0 then `Fresh
    else
      let age = Int64.to_int (Int64.sub w.highest nonce) in
      if age >= nonce_window_size then `Stale
      else if Int64.logand w.bits (Int64.shift_left 1L age) <> 0L then `Seen
      else `Fresh

let record_nonce t ~from nonce =
  let w =
    match Int_tbl.find t.windows from with
    | w -> w
    | exception Not_found ->
      let w = { highest = 0L; bits = 0L } in
      Int_tbl.replace t.windows from w;
      w
  in
  if Int64.compare nonce w.highest > 0 then begin
    let shift = Int64.sub nonce w.highest in
    w.bits <-
      (if Int64.compare shift (Int64.of_int nonce_window_size) >= 0 then 0L
       else Int64.shift_left w.bits (Int64.to_int shift));
    w.bits <- Int64.logor w.bits 1L;
    w.highest <- nonce
  end
  else
    let age = Int64.to_int (Int64.sub w.highest nonce) in
    w.bits <- Int64.logor w.bits (Int64.shift_left 1L age)

let check t ~wire ~prefix_len ~size env =
  let from = env.Message.sender in
  let nonce = env.Message.auth.Auth.nonce in
  match nonce_status t ~from nonce with
  | `Stale | `Seen ->
    (* Replay: dropped before any crypto work, and without updating the
       window — a forged (sender, nonce) pair must not be able to block a
       legitimate future delivery. *)
    Replayed
  | `Fresh ->
    charge_recv_crypto t ~size;
    let fp = Fingerprint.of_substring wire ~off:0 ~len:prefix_len in
    (* In pk mode the "signature" is modeled by the same MAC vector; cost
       is what differs. *)
    if Auth.check t.keychain ~from fp env.Message.auth then begin
      record_nonce t ~from nonce;
      Accepted
    end
    else Rejected
