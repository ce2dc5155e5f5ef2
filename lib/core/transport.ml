module Network = Bft_net.Network
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration
module Fingerprint = Bft_crypto.Fingerprint
module Auth = Bft_crypto.Auth
module Keychain = Bft_crypto.Keychain

type peer = { principal : int; node : Network.node_id }

type verdict = Accepted | Replayed | Rejected

type t = {
  net : Network.t;
  keychain : Keychain.t;
  node : Network.node_id;
  pk_mode : bool;
  mutable nonce : int64;
  scratch : Bft_util.Codec.Enc.t;
      (* wire assembly buffer, one per sender; starts small and grows to
         the largest wire this sender built *)
  windows : Nonce_window.t; (* by sender index *)
  mutable corrupt_auth : bool;
}

let create net ~keychain ~node ?(public_key_signatures = false) () =
  {
    net;
    keychain;
    node;
    pk_mode = public_key_signatures;
    nonce = 0L;
    scratch = Bft_util.Codec.Enc.create ();
    windows = Nonce_window.create ();
    corrupt_auth = false;
  }

let principal t = Keychain.self t.keychain

let node t = t.node

let cpu t = Network.node_cpu t.net t.node

let keychain t = t.keychain

let set_corrupt_auth t b = t.corrupt_auth <- b

let next_nonce t =
  t.nonce <- Int64.add t.nonce 1L;
  t.nonce

(* Authentication covers the digest of the envelope prefix, so big payloads
   are hashed once and MACed cheaply — the scheme the paper relies on. *)
let charge_send_crypto t ~size ~targets =
  let cal = Network.calibration t.net in
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
  let cal = Network.calibration t.net in
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

let check t (rx : Message.received) =
  let env = rx.Message.rx_env in
  let from = env.Message.sender in
  let nonce = env.Message.auth.Auth.nonce in
  let sender = Keychain.peer_index t.keychain from in
  if sender < 0 then
    (* Outside the deployment: no key exists for it, and no state may be
       kept for it either. *)
    Rejected
  else
    match Nonce_window.status t.windows sender nonce with
    | Nonce_window.Stale | Nonce_window.Seen ->
      (* Replay: dropped before any crypto work, and without updating the
         window — a forged (sender, nonce) pair must not be able to block a
         legitimate future delivery. *)
      Replayed
    | Nonce_window.Fresh ->
      charge_recv_crypto t ~size:rx.Message.rx_size;
      (* The prefix digest is the datagram's, shared with its other
         receivers; the tag checked below is this receiver's own. *)
      let fp = Message.prefix_fingerprint rx in
      (* In pk mode the "signature" is modeled by the same MAC vector; cost
         is what differs. *)
      if Auth.check t.keychain ~from fp env.Message.auth then begin
        Nonce_window.record t.windows sender nonce;
        Accepted
      end
      else Rejected
