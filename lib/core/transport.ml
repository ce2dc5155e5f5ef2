module Network = Bft_net.Network
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration
module Fingerprint = Bft_crypto.Fingerprint
module Auth = Bft_crypto.Auth
module Keychain = Bft_crypto.Keychain

type peer = { principal : int; node : Network.node_id }

type verdict = Accepted | Replayed | Rejected

(* A multicast's destinations resolved to MAC targets and machines. *)
type group = {
  dsts : peer list;
  targets : int list;
  count : int;
  nodes : Network.node_id list;  (* sorted, each machine once *)
}

let resolve dsts =
  let targets = List.map (fun (p : peer) -> p.principal) dsts in
  {
    dsts;
    targets;
    count = List.length targets;
    nodes = List.sort_uniq Int.compare (List.map (fun (p : peer) -> p.node) dsts);
  }

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
  mutable group : group;
      (* the last multicast's; a principal multicasts to one list, so the
         next multicast to that very list reuses it *)
  fp_mac_cost : float;  (* [Calibration.mac_cost] of one fingerprint, boxed once *)
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
    group = resolve [];
    fp_mac_cost = Calibration.mac_cost (Network.calibration net) Fingerprint.size;
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
   are hashed once and MACed cheaply — the scheme the paper relies on. The
   digest cost is [Calibration.digest_cost], charged without boxing. *)
let charge_digest t c ~size =
  let cal = Network.calibration t.net in
  Cpu.charge_bytes ~cat:Cpu.Digest c ~base:cal.Calibration.digest_base_cost
    ~per_byte:cal.Calibration.digest_byte_cost size

let charge_send_crypto t ~size ~targets =
  let cal = Network.calibration t.net in
  let c = cpu t in
  charge_digest t c ~size;
  if t.pk_mode then
    Cpu.charge ~cat:Cpu.Mac_gen c cal.Calibration.pk_sign_cost
  else begin
    (* One target charges the boxed cost itself: [1.0 *. x] is [x]. *)
    Cpu.charge ~cat:Cpu.Mac_gen c
      (if targets = 1 then t.fp_mac_cost else float_of_int targets *. t.fp_mac_cost);
    Cpu.charge ~cat:Cpu.Other c cal.Calibration.protocol_op_cost
  end

let charge_recv_crypto t ~size =
  let cal = Network.calibration t.net in
  let c = cpu t in
  charge_digest t c ~size;
  if t.pk_mode then
    Cpu.charge ~cat:Cpu.Mac_verify c cal.Calibration.pk_verify_cost
  else begin
    Cpu.charge ~cat:Cpu.Mac_verify c t.fp_mac_cost;
    Cpu.charge ~cat:Cpu.Other c cal.Calibration.protocol_op_cost
  end

(* Build the wire for [targets] and put it on the network towards
   [nodes]. The whole wire is assembled in the per-transport scratch
   buffer: encode the prefix, fingerprint it in place, then append the
   authenticator — the only string allocated is the final wire. The
   datagram records the prefix digest and the true tags, taken before a
   forger corrupts them, so its receivers need not recompute them. *)
let transmit t ~commits ~targets ~count ~nodes msg =
  let enc = t.scratch in
  Message.encode_prefix_into enc ~sender:(principal t) ~msg ~commits;
  let module Enc = Bft_util.Codec.Enc in
  let prefix_len = Enc.length enc in
  let fp = Fingerprint.of_bytes (Enc.unsafe_bytes enc) ~off:0 ~len:prefix_len in
  let auth =
    Auth.seal enc t.keychain ~nonce:(next_nonce t) ~targets ~corrupt:t.corrupt_auth fp
  in
  let wire = Enc.to_string enc in
  let size = String.length wire + Message.padding msg in
  charge_send_crypto t ~size ~targets:count;
  Network.multicast t.net ~src:t.node ~dsts:nodes ~size
    ~origin:(Message.Built { wire; prefix_len; auth })
    wire

let send t ~dst msg =
  transmit t ~commits:[] ~targets:[ dst.principal ] ~count:1 ~nodes:[ dst.node ] msg

let multicast t ?(commits = []) ~dsts msg =
  if t.group.dsts != dsts then t.group <- resolve dsts;
  let g = t.group in
  transmit t ~commits ~targets:g.targets ~count:g.count ~nodes:g.nodes msg

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
         receivers; the tag checked below is this receiver's own, against
         the sender's true tag when the datagram recorded it under this
         receiver's current session. *)
      let fp = Message.prefix_fingerprint rx in
      (* In pk mode the "signature" is modeled by the same MAC vector; cost
         is what differs. *)
      if Auth.check ?origin:rx.Message.rx_origin t.keychain ~from fp env.Message.auth
      then begin
        Nonce_window.record t.windows sender nonce;
        Accepted
      end
      else Rejected
