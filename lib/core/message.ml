open Types
module Codec = Bft_util.Codec
module Enc = Codec.Enc
module Dec = Codec.Dec
module Fingerprint = Bft_crypto.Fingerprint
module Auth = Bft_crypto.Auth

type request = {
  client : client_id;
  timestamp : int64;
  read_only : bool;
  full_replies : bool;
  replier : replica_id;
  op : Payload.t;
}

type batch_entry = Full of request | Summary of Fingerprint.t | Null_entry

type pre_prepare = { view : view; seq : seqno; entries : batch_entry list }

(* Rotating-ordering pre-prepare: an epoch's first PRE-PREPARE additionally
   carries the proposer's closing commit point for the predecessor epochs,
   so receivers can fill their own abandoned slots below the new epoch.
   A separate wire tag keeps single-primary traffic byte-identical. *)
type ordered_pre_prepare = {
  opp_view : view;
  opp_seq : seqno;
  opp_close : seqno;
  opp_entries : batch_entry list;
}

type prepare = { view : view; seq : seqno; digest : Fingerprint.t; replica : replica_id }

type commit = { view : view; seq : seqno; digest : Fingerprint.t; replica : replica_id }

type reply_body = Full_result of Payload.t | Result_digest of Fingerprint.t

type reply = {
  view : view;
  timestamp : int64;
  client : client_id;
  replica : replica_id;
  tentative : bool;
  epoch : int;
  body : reply_body;
}

type checkpoint_msg = { seq : seqno; digest : Fingerprint.t; replica : replica_id }

type prepared_proof = { view : view; seq : seqno; digest : Fingerprint.t }

type view_change = {
  next_view : view;
  last_stable : seqno;
  stable_digest : Fingerprint.t;
  prepared : prepared_proof list;
  replica : replica_id;
}

type new_view_entry = { seq : seqno; digest : Fingerprint.t; entries : batch_entry list }

type new_view = {
  view : view;
  supporters : replica_id list;
  min_s : seqno;
  nv_entries : new_view_entry list;
}

type get_state = { from_seq : seqno; replica : replica_id }

type state_meta = {
  sm_seq : seqno;
  sm_state_digest : Fingerprint.t;
  sm_page_digests : Fingerprint.t list;
  sm_view : view;
}

type get_pages = { gp_seq : seqno; gp_indexes : int list; gp_replica : replica_id }

type pages_resp = { pg_seq : seqno; pg_pages : (int * Payload.t) list }

type state_resp = {
  seq : seqno;
  state_digest : Fingerprint.t;
  snapshot : Payload.t;
  reply_view : view;
}

type fetch_batch = { fb_view : view; fb_seq : seqno; fb_replica : replica_id }

type new_key = { nk_replica : replica_id; epoch : int }

type status = {
  st_view : view;
  st_stable : seqno;
  st_committed : seqno;
  st_vc : bool;
  st_replica : replica_id;
}

type busy = {
  bz_view : view;
  bz_timestamp : int64;
  bz_client : client_id;
  bz_replica : replica_id;
  bz_queue : int;
}

type t =
  | Request of request
  | Pre_prepare of pre_prepare
  | Prepare of prepare
  | Commit of commit
  | Reply of reply
  | Checkpoint of checkpoint_msg
  | View_change of view_change
  | New_view of new_view
  | Get_state of get_state
  | State of state_resp
  | State_meta of state_meta
  | Get_pages of get_pages
  | Pages of pages_resp
  | Fetch_batch of fetch_batch
  | New_key of new_key
  | Status of status
  | Busy of busy
  | Ordered_pre_prepare of ordered_pre_prepare

type envelope = { sender : int; msg : t; commits : commit list; auth : Auth.t }

(* --- encoding ------------------------------------------------------- *)

let enc_fp enc fp = Enc.raw enc fp

let dec_fp dec = Dec.raw dec Fingerprint.size

let enc_request enc (r : request) =
  Enc.u32 enc r.client;
  Enc.u64 enc r.timestamp;
  Enc.bool enc r.read_only;
  Enc.bool enc r.full_replies;
  Enc.u16 enc (r.replier land 0xFFFF);
  Payload.encode enc r.op

let dec_request dec : request =
  let client = Dec.u32 dec in
  let timestamp = Dec.u64 dec in
  let read_only = Dec.bool dec in
  let full_replies = Dec.bool dec in
  let replier =
    let v = Dec.u16 dec in
    if v = 0xFFFF then -1 else v
  in
  let op = Payload.decode dec in
  { client; timestamp; read_only; full_replies; replier; op }

let enc_entry enc = function
  | Full r ->
    Enc.u8 enc 0;
    enc_request enc r
  | Summary d ->
    Enc.u8 enc 1;
    enc_fp enc d
  | Null_entry -> Enc.u8 enc 2

let dec_entry dec =
  match Dec.u8 dec with
  | 0 -> Full (dec_request dec)
  | 1 -> Summary (dec_fp dec)
  | 2 -> Null_entry
  | tag -> raise (Codec.Decode_error (Printf.sprintf "bad batch entry tag %d" tag))

let enc_pre_prepare enc (p : pre_prepare) =
  Enc.u32 enc p.view;
  Enc.u64 enc (Int64.of_int p.seq);
  Enc.list enc enc_entry p.entries

let dec_pre_prepare dec : pre_prepare =
  let view = Dec.u32 dec in
  let seq = Int64.to_int (Dec.u64 dec) in
  let entries = Dec.list dec dec_entry in
  { view; seq; entries }

let enc_vsd enc view seq digest replica =
  Enc.u32 enc view;
  Enc.u64 enc (Int64.of_int seq);
  enc_fp enc digest;
  Enc.u16 enc replica

let dec_vsd dec =
  let view = Dec.u32 dec in
  let seq = Int64.to_int (Dec.u64 dec) in
  let digest = dec_fp dec in
  let replica = Dec.u16 dec in
  (view, seq, digest, replica)

let enc_commit enc (c : commit) = enc_vsd enc c.view c.seq c.digest c.replica

let dec_commit dec : commit =
  let view, seq, digest, replica = dec_vsd dec in
  { view; seq; digest; replica }

let enc_reply enc (r : reply) =
  Enc.u32 enc r.view;
  Enc.u64 enc r.timestamp;
  Enc.u32 enc r.client;
  Enc.u16 enc r.replica;
  Enc.bool enc r.tentative;
  Enc.u32 enc r.epoch;
  match r.body with
  | Full_result p ->
    Enc.u8 enc 0;
    Payload.encode enc p
  | Result_digest d ->
    Enc.u8 enc 1;
    enc_fp enc d

let dec_reply dec : reply =
  let view = Dec.u32 dec in
  let timestamp = Dec.u64 dec in
  let client = Dec.u32 dec in
  let replica = Dec.u16 dec in
  let tentative = Dec.bool dec in
  let epoch = Dec.u32 dec in
  let body =
    match Dec.u8 dec with
    | 0 -> Full_result (Payload.decode dec)
    | 1 -> Result_digest (dec_fp dec)
    | tag -> raise (Codec.Decode_error (Printf.sprintf "bad reply body tag %d" tag))
  in
  { view; timestamp; client; replica; tentative; epoch; body }

let enc_proof enc (p : prepared_proof) =
  Enc.u32 enc p.view;
  Enc.u64 enc (Int64.of_int p.seq);
  enc_fp enc p.digest

let dec_proof dec : prepared_proof =
  let view = Dec.u32 dec in
  let seq = Int64.to_int (Dec.u64 dec) in
  let digest = dec_fp dec in
  { view; seq; digest }

let enc_view_change enc (v : view_change) =
  Enc.u32 enc v.next_view;
  Enc.u64 enc (Int64.of_int v.last_stable);
  enc_fp enc v.stable_digest;
  Enc.list enc enc_proof v.prepared;
  Enc.u16 enc v.replica

let dec_view_change dec : view_change =
  let next_view = Dec.u32 dec in
  let last_stable = Int64.to_int (Dec.u64 dec) in
  let stable_digest = dec_fp dec in
  let prepared = Dec.list dec dec_proof in
  let replica = Dec.u16 dec in
  { next_view; last_stable; stable_digest; prepared; replica }

let enc_new_view enc (nv : new_view) =
  Enc.u32 enc nv.view;
  Enc.list enc (fun enc r -> Enc.u16 enc r) nv.supporters;
  Enc.u64 enc (Int64.of_int nv.min_s);
  Enc.list enc
    (fun enc (e : new_view_entry) ->
      Enc.u64 enc (Int64.of_int e.seq);
      enc_fp enc e.digest;
      Enc.list enc enc_entry e.entries)
    nv.nv_entries

let dec_new_view dec : new_view =
  let view = Dec.u32 dec in
  let supporters = Dec.list dec (fun dec -> Dec.u16 dec) in
  let min_s = Int64.to_int (Dec.u64 dec) in
  let nv_entries =
    Dec.list dec (fun dec ->
        let seq = Int64.to_int (Dec.u64 dec) in
        let digest = dec_fp dec in
        let entries = Dec.list dec dec_entry in
        { seq; digest; entries })
  in
  { view; supporters; min_s; nv_entries }

let encode_msg enc = function
  | Request r ->
    Enc.u8 enc 1;
    enc_request enc r
  | Pre_prepare p ->
    Enc.u8 enc 2;
    enc_pre_prepare enc p
  | Prepare p ->
    Enc.u8 enc 3;
    enc_vsd enc p.view p.seq p.digest p.replica
  | Commit c ->
    Enc.u8 enc 4;
    enc_commit enc c
  | Reply r ->
    Enc.u8 enc 5;
    enc_reply enc r
  | Checkpoint c ->
    Enc.u8 enc 6;
    Enc.u64 enc (Int64.of_int c.seq);
    enc_fp enc c.digest;
    Enc.u16 enc c.replica
  | View_change v ->
    Enc.u8 enc 7;
    enc_view_change enc v
  | New_view nv ->
    Enc.u8 enc 8;
    enc_new_view enc nv
  | Get_state g ->
    Enc.u8 enc 9;
    Enc.u64 enc (Int64.of_int g.from_seq);
    Enc.u16 enc g.replica
  | State s ->
    Enc.u8 enc 10;
    Enc.u64 enc (Int64.of_int s.seq);
    enc_fp enc s.state_digest;
    Payload.encode enc s.snapshot;
    Enc.u32 enc s.reply_view
  | Fetch_batch f ->
    Enc.u8 enc 11;
    Enc.u32 enc f.fb_view;
    Enc.u64 enc (Int64.of_int f.fb_seq);
    Enc.u16 enc f.fb_replica
  | New_key k ->
    Enc.u8 enc 12;
    Enc.u16 enc k.nk_replica;
    Enc.u32 enc k.epoch
  | State_meta m ->
    Enc.u8 enc 13;
    Enc.u64 enc (Int64.of_int m.sm_seq);
    enc_fp enc m.sm_state_digest;
    Enc.list enc enc_fp m.sm_page_digests;
    Enc.u32 enc m.sm_view
  | Get_pages g ->
    Enc.u8 enc 14;
    Enc.u64 enc (Int64.of_int g.gp_seq);
    Enc.list enc (fun enc i -> Enc.u32 enc i) g.gp_indexes;
    Enc.u16 enc g.gp_replica
  | Pages p ->
    Enc.u8 enc 15;
    Enc.u64 enc (Int64.of_int p.pg_seq);
    Enc.list enc
      (fun enc (i, page) ->
        Enc.u32 enc i;
        Payload.encode enc page)
      p.pg_pages
  | Status st ->
    Enc.u8 enc 16;
    Enc.u32 enc st.st_view;
    Enc.u64 enc (Int64.of_int st.st_stable);
    Enc.u64 enc (Int64.of_int st.st_committed);
    Enc.bool enc st.st_vc;
    Enc.u16 enc st.st_replica
  | Busy b ->
    Enc.u8 enc 17;
    Enc.u32 enc b.bz_view;
    Enc.u64 enc b.bz_timestamp;
    Enc.u32 enc b.bz_client;
    Enc.u16 enc b.bz_replica;
    Enc.u32 enc b.bz_queue
  | Ordered_pre_prepare o ->
    Enc.u8 enc 18;
    Enc.u32 enc o.opp_view;
    Enc.u64 enc (Int64.of_int o.opp_seq);
    Enc.u64 enc (Int64.of_int o.opp_close);
    Enc.list enc enc_entry o.opp_entries

let decode_msg dec =
  match Dec.u8 dec with
  | 1 -> Request (dec_request dec)
  | 2 -> Pre_prepare (dec_pre_prepare dec)
  | 3 ->
    let view, seq, digest, replica = dec_vsd dec in
    Prepare { view; seq; digest; replica }
  | 4 -> Commit (dec_commit dec)
  | 5 -> Reply (dec_reply dec)
  | 6 ->
    let seq = Int64.to_int (Dec.u64 dec) in
    let digest = dec_fp dec in
    let replica = Dec.u16 dec in
    Checkpoint { seq; digest; replica }
  | 7 -> View_change (dec_view_change dec)
  | 8 -> New_view (dec_new_view dec)
  | 9 ->
    let from_seq = Int64.to_int (Dec.u64 dec) in
    let replica = Dec.u16 dec in
    Get_state { from_seq; replica }
  | 10 ->
    let seq = Int64.to_int (Dec.u64 dec) in
    let state_digest = dec_fp dec in
    let snapshot = Payload.decode dec in
    let reply_view = Dec.u32 dec in
    State { seq; state_digest; snapshot; reply_view }
  | 11 ->
    let fb_view = Dec.u32 dec in
    let fb_seq = Int64.to_int (Dec.u64 dec) in
    let fb_replica = Dec.u16 dec in
    Fetch_batch { fb_view; fb_seq; fb_replica }
  | 12 ->
    let nk_replica = Dec.u16 dec in
    let epoch = Dec.u32 dec in
    New_key { nk_replica; epoch }
  | 13 ->
    let sm_seq = Int64.to_int (Dec.u64 dec) in
    let sm_state_digest = dec_fp dec in
    let sm_page_digests = Dec.list dec dec_fp in
    let sm_view = Dec.u32 dec in
    State_meta { sm_seq; sm_state_digest; sm_page_digests; sm_view }
  | 14 ->
    let gp_seq = Int64.to_int (Dec.u64 dec) in
    let gp_indexes = Dec.list dec (fun dec -> Dec.u32 dec) in
    let gp_replica = Dec.u16 dec in
    Get_pages { gp_seq; gp_indexes; gp_replica }
  | 15 ->
    let pg_seq = Int64.to_int (Dec.u64 dec) in
    let pg_pages =
      Dec.list dec (fun dec ->
          let i = Dec.u32 dec in
          let page = Payload.decode dec in
          (i, page))
    in
    Pages { pg_seq; pg_pages }
  | 16 ->
    let st_view = Dec.u32 dec in
    let st_stable = Int64.to_int (Dec.u64 dec) in
    let st_committed = Int64.to_int (Dec.u64 dec) in
    let st_vc = Dec.bool dec in
    let st_replica = Dec.u16 dec in
    Status { st_view; st_stable; st_committed; st_vc; st_replica }
  | 17 ->
    let bz_view = Dec.u32 dec in
    let bz_timestamp = Dec.u64 dec in
    let bz_client = Dec.u32 dec in
    let bz_replica = Dec.u16 dec in
    let bz_queue = Dec.u32 dec in
    Busy { bz_view; bz_timestamp; bz_client; bz_replica; bz_queue }
  | 18 ->
    let opp_view = Dec.u32 dec in
    let opp_seq = Int64.to_int (Dec.u64 dec) in
    let opp_close = Int64.to_int (Dec.u64 dec) in
    let opp_entries = Dec.list dec dec_entry in
    Ordered_pre_prepare { opp_view; opp_seq; opp_close; opp_entries }
  | tag -> raise (Codec.Decode_error (Printf.sprintf "bad message tag %d" tag))

let encode_body msg =
  let enc = Enc.create () in
  encode_msg enc msg;
  Enc.to_string enc

(* --- digests --------------------------------------------------------- *)

(* Scratch reused across digest computations (none of them nest). It
   stays module-level: the buffers' contents never outlive one call, so no
   run can observe another's. *)
let digest_enc = Enc.create ~initial:256 ()

let digest_builder = Fingerprint.create_builder ()

(* [request_digest r] and the number of bytes it digested. A replica
   computes it once per request and keeps it with the request (pending
   queue, log slot); a received request's digest is shared through its
   [received] memo. *)
let request_digest_fed (r : request) =
  let enc = digest_enc in
  Enc.clear enc;
  (* full_replies and replier are delivery hints, not part of the operation
     identity: a retransmission must hash to the same digest. *)
  Enc.u32 enc r.client;
  Enc.u64 enc r.timestamp;
  Enc.bool enc r.read_only;
  Payload.encode enc r.op;
  (* Byte-identical to [Fingerprint.of_parts [body; Payload.pad_part pad]]. *)
  let b = digest_builder in
  Fingerprint.reset_builder b;
  Fingerprint.add_part_bytes b (Enc.unsafe_bytes enc) ~off:0 ~len:(Enc.length enc);
  let pad = Payload.pad_part r.op.Payload.pad in
  Fingerprint.add_part b pad;
  (Fingerprint.finish b, Enc.length enc + String.length pad)

let request_digest r = fst (request_digest_fed r)

let entry_digest = function
  | Full r -> request_digest r
  | Summary d -> d
  | Null_entry -> Fingerprint.zero

(* Module-level scratch like [digest_builder]; contents never outlive one
   call. *)
let batch_builder = Fingerprint.create_builder ()

let batch_digest_of_entry_digests digests =
  (* Streaming form of [Fingerprint.of_parts digests]; needs its own builder
     because [request_digest] uses [digest_builder]. *)
  let b = batch_builder in
  Fingerprint.reset_builder b;
  List.iter (Fingerprint.add_part b) digests;
  Fingerprint.finish b

let batch_digest entries =
  batch_digest_of_entry_digests (List.map entry_digest entries)

(* --- modeled padding -------------------------------------------------- *)

let entry_padding = function Full r -> r.op.Payload.pad | Summary _ | Null_entry -> 0

let padding = function
  | Request r -> r.op.Payload.pad
  | Pre_prepare p -> List.fold_left (fun acc e -> acc + entry_padding e) 0 p.entries
  | Ordered_pre_prepare o ->
    List.fold_left (fun acc e -> acc + entry_padding e) 0 o.opp_entries
  | Reply { body = Full_result p; _ } -> p.Payload.pad
  | Reply _ -> 0
  | State s -> s.snapshot.Payload.pad
  | New_view nv ->
    List.fold_left
      (fun acc (e : new_view_entry) ->
        acc + List.fold_left (fun acc e -> acc + entry_padding e) 0 e.entries)
      0 nv.nv_entries
  | Pages p ->
    List.fold_left (fun acc (_, page) -> acc + page.Payload.pad) 0 p.pg_pages
  | Prepare _ | Commit _ | Checkpoint _ | View_change _ | Get_state _ | Fetch_batch _
  | New_key _ | State_meta _ | Get_pages _ | Status _ | Busy _ ->
    0

(* --- envelope --------------------------------------------------------- *)

let encode_prefix_into enc ~sender ~msg ~commits =
  Enc.clear enc;
  Enc.u32 enc sender;
  encode_msg enc msg;
  Enc.list enc enc_commit commits

let encode_envelope env =
  let enc = Enc.create () in
  encode_prefix_into enc ~sender:env.sender ~msg:env.msg ~commits:env.commits;
  Auth.encode enc env.auth;
  Enc.to_string enc

let decode_envelope_ex s =
  let dec = Dec.of_string s in
  let sender = Dec.u32 dec in
  let msg = decode_msg dec in
  let commits = Dec.list dec dec_commit in
  let prefix_len = Dec.position dec in
  let auth = Auth.decode dec in
  Dec.expect_end dec;
  ({ sender; msg; commits; auth }, prefix_len)

let decode_envelope s = fst (decode_envelope_ex s)

(* --- received envelopes ------------------------------------------------ *)

(* Digest work that depends on a received wire's bytes alone, done by the
   first receiver that asks. Every later ask notes the same work in
   [Tally], so operation counts do not depend on how many receivers share
   one datagram. *)
type received_memo = {
  mutable prefix_fp : Fingerprint.t;  (* [""] until known *)
  mutable digests : (Fingerprint.t list * int list) option;
      (* the carried requests' digests, and the bytes each one digested *)
  mutable batch : Fingerprint.t;  (* [""] until known *)
}

type received = {
  rx_env : envelope;
  rx_wire : string;
  rx_size : int;
  rx_prefix_len : int;
  rx_origin : Auth.origin option;
  rx_memo : received_memo;
}

type Bft_net.Network.origin +=
  | Built of { wire : string; prefix_len : int; auth : Auth.origin }

let receive ?(origin = Bft_net.Network.Unrecorded) ~size wire =
  let env, prefix_len = decode_envelope_ex wire in
  (* The sender's prefix digest is this wire's if it was taken over this
     very string and over as many bytes. *)
  let prefix_fp, rx_origin =
    match origin with
    | Built o when o.wire == wire && o.prefix_len = prefix_len ->
      (Auth.covered o.auth, Some o.auth)
    | _ -> ("", None)
  in
  {
    rx_env = env;
    rx_wire = wire;
    rx_size = size;
    rx_prefix_len = prefix_len;
    rx_origin;
    rx_memo = { prefix_fp; digests = None; batch = "" };
  }

let prefix_fingerprint rx =
  match rx.rx_memo.prefix_fp with
  | "" ->
    let fp = Fingerprint.of_substring rx.rx_wire ~off:0 ~len:rx.rx_prefix_len in
    rx.rx_memo.prefix_fp <- fp;
    fp
  | fp ->
    Bft_crypto.Tally.note_digest rx.rx_prefix_len;
    fp

let received_digests rx =
  match rx.rx_memo.digests with
  | Some (digests, fed) ->
    List.iter Bft_crypto.Tally.note_digest fed;
    digests
  | None ->
    let fed = ref [] in
    let digest = function
      | Full r ->
        let d, n = request_digest_fed r in
        fed := n :: !fed;
        d
      | (Summary _ | Null_entry) as e -> entry_digest e
    in
    let digests =
      match rx.rx_env.msg with
      | Request r -> [ digest (Full r) ]
      | Pre_prepare p -> List.map digest p.entries
      | Ordered_pre_prepare o -> List.map digest o.opp_entries
      | _ -> []
    in
    rx.rx_memo.digests <- Some (digests, !fed);
    digests

let received_request_digest rx =
  match rx.rx_env.msg with
  | Request _ -> List.hd (received_digests rx)
  | _ -> invalid_arg "Message.received_request_digest: not a request"

let received_entry_digests rx =
  match rx.rx_env.msg with
  | Pre_prepare _ | Ordered_pre_prepare _ -> received_digests rx
  | _ -> invalid_arg "Message.received_entry_digests: not a pre-prepare"

let received_batch_digest rx digests =
  match rx.rx_memo.batch with
  | "" ->
    let d = batch_digest_of_entry_digests digests in
    rx.rx_memo.batch <- d;
    d
  | d ->
    Bft_crypto.Tally.note_digest (Fingerprint.size * List.length digests);
    d

let envelope_size env wire = String.length wire + padding env.msg

let tag_name = function
  | Request _ -> "request"
  | Pre_prepare _ -> "pre-prepare"
  | Ordered_pre_prepare _ -> "ordered-pre-prepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Reply _ -> "reply"
  | Checkpoint _ -> "checkpoint"
  | View_change _ -> "view-change"
  | New_view _ -> "new-view"
  | Get_state _ -> "get-state"
  | State _ -> "state"
  | Fetch_batch _ -> "fetch-batch"
  | New_key _ -> "new-key"
  | State_meta _ -> "state-meta"
  | Get_pages _ -> "get-pages"
  | Pages _ -> "pages"
  | Status _ -> "status"
  | Busy _ -> "busy"

let recv_counter = function
  | Request _ -> "recv.request"
  | Pre_prepare _ -> "recv.pre-prepare"
  | Ordered_pre_prepare _ -> "recv.ordered-pre-prepare"
  | Prepare _ -> "recv.prepare"
  | Commit _ -> "recv.commit"
  | Reply _ -> "recv.reply"
  | Checkpoint _ -> "recv.checkpoint"
  | View_change _ -> "recv.view-change"
  | New_view _ -> "recv.new-view"
  | Get_state _ -> "recv.get-state"
  | State _ -> "recv.state"
  | Fetch_batch _ -> "recv.fetch-batch"
  | New_key _ -> "recv.new-key"
  | State_meta _ -> "recv.state-meta"
  | Get_pages _ -> "recv.get-pages"
  | Pages _ -> "recv.pages"
  | Status _ -> "recv.status"
  | Busy _ -> "recv.busy"
