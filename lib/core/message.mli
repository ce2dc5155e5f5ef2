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
(** D(m) over the canonical encoding of the request — the one definition
    of a request digest. A replica digests each request once, when it
    first sees it, and keeps the digest with the request; the receivers of
    one datagram share the digests of the requests it carries
    ({!received_request_digest}). *)

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

(** {2 Received envelopes}

    A datagram's receivers share one [received]: the decoded envelope and
    the digests that depend on its bytes alone, each computed by the first
    receiver that asks. Every later ask counts the same digest work in
    {!Bft_crypto.Tally}, so crypto operation counts are those of receivers
    that each digest for themselves. Checks and costs that differ per
    receiver — nonce window, own MAC tag, virtual CPU charges — are never
    shared. *)

type received_memo

type received = private {
  rx_env : envelope;
  rx_wire : string;  (** the exact received bytes *)
  rx_size : int;  (** modelled size *)
  rx_prefix_len : int;  (** bytes the authenticator covers *)
  rx_origin : Bft_crypto.Auth.origin option;
      (** what the sender computed for the authenticator, when the
          datagram records it (see {!Built}) *)
  rx_memo : received_memo;
}

type Bft_net.Network.origin +=
  | Built of { wire : string; prefix_len : int; auth : Bft_crypto.Auth.origin }
        (** [wire] as its sender's transport built it: the
            authenticator's origin, whose message is the digest of
            [wire]'s first [prefix_len] bytes. A wire re-sent by anyone
            else (a replay) carries none. *)

val receive : ?origin:Bft_net.Network.origin -> size:int -> string -> received
(** Decode a wire of modelled [size], sent with [origin] (default
    {!Bft_net.Network.Unrecorded}). A {!Built} origin for this very string
    (physically) and the decoded prefix supplies the prefix digest and
    {!field-rx_origin}; any other origin is ignored, and both are computed.
    @raise Bft_util.Codec.Decode_error on malformed input. *)

val prefix_fingerprint : received -> Fingerprint.t
(** Digest of the envelope prefix, the message the authenticator's MACs
    cover. *)

val received_request_digest : received -> Fingerprint.t
(** [request_digest r] of a received REQUEST [r].
    @raise Invalid_argument for any other message. *)

val received_entry_digests : received -> Fingerprint.t list
(** [List.map entry_digest entries] of a received PRE-PREPARE or ordered
    PRE-PREPARE.
    @raise Invalid_argument for any other message. *)

val received_batch_digest : received -> Fingerprint.t list -> Fingerprint.t
(** [received_batch_digest rx digests] is
    [batch_digest_of_entry_digests digests], where [digests] is
    [received_entry_digests rx]: the batch digest of a received
    PRE-PREPARE or ordered PRE-PREPARE, shared like the entry digests. *)

val envelope_size : envelope -> string -> int
(** Modeled datagram size for an encoded envelope: wire length plus
    payload padding. *)

val tag_name : t -> string
(** For logs and per-message-type counters. *)

val recv_counter : t -> string
(** ["recv." ^ tag_name msg], a constant string per constructor, so the
    per-type receive counter builds no string per message. *)
