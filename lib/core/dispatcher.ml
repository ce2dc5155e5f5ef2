module Network = Bft_net.Network
module Int_tbl = Bft_util.Dense.Int_tbl

type sink = Message.received -> unit

type t = {
  clients : sink Int_tbl.t;
  mutable default : sink option;
  mutable malformed_count : int;
}

(* A datagram is decoded once, by whichever of its receivers' dispatchers
   gets it first; the others share the result, and with it what the
   sender recorded in the datagram's origin. *)
type Network.memo += Received of Message.received | Undecodable

let decode (dgram : Network.datagram) =
  match
    Message.receive ~origin:dgram.Network.origin ~size:dgram.Network.size
      dgram.Network.wire
  with
  | rx -> Received rx
  | exception Bft_util.Codec.Decode_error _ -> Undecodable

let install net node =
  let t = { clients = Int_tbl.create 8; default = None; malformed_count = 0 } in
  Network.set_handler net node (fun ~src:_ dgram ->
      match Network.memo dgram decode with
      | Received rx -> (
        let env = rx.Message.rx_env in
        (* Client-addressed messages route by the client id they name:
           REPLY and BUSY both terminate at a client process. Routing BUSY
           to the default principal (as this code once did) silently
           dropped every shed notification on a shared client machine —
           the client kept retransmitting instead of learning its request
           was rejected. *)
        let sink =
          match env.Message.msg with
          | Message.Reply r -> (
            match Int_tbl.find_opt t.clients r.Message.client with
            | Some sink -> Some sink
            | None -> t.default)
          | Message.Busy b -> (
            match Int_tbl.find_opt t.clients b.Message.bz_client with
            | Some sink -> Some sink
            | None -> t.default)
          | _ -> t.default
        in
        match sink with
        | Some sink -> sink rx
        | None -> t.malformed_count <- t.malformed_count + 1)
      | _ -> t.malformed_count <- t.malformed_count + 1);
  t

let register_client t id sink = Int_tbl.replace t.clients id sink

let register_default t sink = t.default <- Some sink

let malformed t = t.malformed_count
