(** Protocol messages and their wire format.

    Naming follows the paper: REQUEST, PRE-PREPARE, PREPARE, COMMIT, REPLY,
    CHECKPOINT, VIEW-CHANGE, NEW-VIEW, plus the state-transfer and
    key-refresh messages. Every message travels in an {!envelope} that
    carries the sender, an optional list of piggybacked COMMITs (the
    Section 3.1 optimization), and a MAC-vector authenticator over the
    message bytes. *)

open Types

module Fingerprint = Bft_crypto.Fingerprint

type request = {
  client : client_id;
  timestamp : int64;  (** per-client monotonic counter *)
  read_only : bool;
  full_replies : bool;
      (** set on retransmissions: all replicas reply with the full result *)
  replier : replica_id;  (** designated replier for the digest-replies opt *)
  op : Payload.t;
}

(** One slot of a pre-prepare batch: the request inline, just its digest
    (separate request transmission), or the null request used to fill
    sequence-number gaps after a view change. *)
type batch_entry =
  | Full of request
  | Summary of Fingerprint.t
  | Null_entry

type pre_prepare = { view : view; seq : seqno; entries : batch_entry list }

(** Rotating-ordering PRE-PREPARE (epoch-first slots only): [opp_close] is
    the proposer's closing commit point for the predecessor epochs, so
    receivers can fill their own abandoned slots below the new epoch. A
    separate wire tag keeps single-primary traffic byte-identical. *)
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
      (** the replica's current inbound key epoch, so clients re-key after
          a proactive recovery *)
  body : reply_body;
}

type checkpoint_msg = { seq : seqno; digest : Fingerprint.t; replica : replica_id }

(** Certificate summary carried in VIEW-CHANGE: the request batch [digest]
    prepared at [seq] in [view]. *)
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
      (** replicas whose VIEW-CHANGE messages back this NEW-VIEW *)
  min_s : seqno;
  nv_entries : new_view_entry list;
}

type get_state = { from_seq : seqno; replica : replica_id }

(** Hierarchical state transfer (BFT's state partitions): the responder
    first ships the per-page digests; the fetcher then requests only the
    pages it lacks. *)
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

(** Periodic status summary (PBFT's status messages): lets peers retransmit
    exactly what a straggler lacks. *)
type status = {
  st_view : view;
  st_stable : seqno;
  st_committed : seqno;
  st_vc : bool;  (** sender is waiting out a view change *)
  st_replica : replica_id;
}

(** Explicit admission-control rejection: the primary's bounded request
    queue was full, so the request was shed instead of silently queued.
    Authenticated like every other message by the envelope MAC vector.
    [bz_queue] reports the queue depth at shed time, for diagnostics. *)
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

type envelope = {
  sender : int;  (** principal id: replica or client *)
  msg : t;
  commits : commit list;  (** piggybacked COMMITs *)
  auth : Bft_crypto.Auth.t;
}

val request_digest : request -> Fingerprint.t
(** D(m) over the canonical encoding of the request. Not memoized: a
    replica digests each request once, when it first sees it, and keeps
    the digest with the request. *)

val entry_digest : batch_entry -> Fingerprint.t
(** The request digest for [Full], the carried digest for [Summary],
    [Fingerprint.zero] for [Null_entry]. *)

val batch_digest_of_entry_digests : Fingerprint.t list -> Fingerprint.t
(** The [d] bound by PREPARE and COMMIT, from the entries' digests. *)

val batch_digest : batch_entry list -> Fingerprint.t
(** [batch_digest_of_entry_digests (List.map entry_digest entries)]. *)

val encode_body : t -> string
(** Canonical encoding of the message (without envelope framing). *)

val padding : t -> int
(** Modeled zero-padding bytes carried by payloads inside the message. *)

val encode_prefix_into :
  Bft_util.Codec.Enc.t -> sender:int -> msg:t -> commits:commit list -> unit
(** Write the envelope bytes before the authenticator — what the
    authenticator covers — into [enc] (cleared first). Followed by
    [Auth.encode] into the same encoder, this is the one way an envelope is
    assembled: the sender fingerprints the prefix in place between the two. *)

val encode_envelope : envelope -> string
(** [encode_prefix_into] then [Auth.encode] on a fresh encoder: the
    allocating form, for senders that already hold the authenticator. *)

val decode_envelope : string -> envelope
(** Raises [Bft_util.Codec.Decode_error] on malformed input. *)

val decode_envelope_ex : string -> envelope * int
(** Also returns the prefix length, so receivers can verify the
    authenticator against the exact received bytes. *)

val envelope_size : envelope -> string -> int
(** Modeled datagram size for an encoded envelope: wire length plus
    payload padding. *)

val tag_name : t -> string
(** For logs and per-message-type counters. *)

val recv_counter : t -> string
(** ["recv." ^ tag_name msg], a constant string per constructor, so the
    per-type receive counter builds no string per message. *)
