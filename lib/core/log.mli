(** The replica's message log: one slot per sequence number between the
    watermarks, accumulating the PRE-PREPARE and the PREPARE/COMMIT
    certificates, plus execution bookkeeping.

    The low watermark [h] is the sequence number of the last stable
    checkpoint; slots are accepted in [(h, h + L]]. Advancing the stable
    checkpoint truncates everything at or below it.

    Slots sit in an [L]-entry ring indexed by [seq mod L], so [find],
    [get] and [truncate] cost O(1) per slot touched and [iter] needs no
    sort. A body-wait index maps each missing request digest to the slots
    that lack it, so an arriving body visits only the slots it unblocks. *)

open Types

module Fingerprint = Bft_crypto.Fingerprint

type slot = {
  seq : seqno;
  mutable pre_prepare : (view * Message.batch_entry list) option;
  mutable entry_digests : Fingerprint.t list;
      (** {!Message.entry_digest} of each pre-prepare entry, in order: set
          with [pre_prepare], so no request in the slot is digested again *)
  mutable pp_digest : Fingerprint.t option;
  mutable proposer : replica_id;
      (** who proposed the accepted pre-prepare (-1 if none yet); its
          prepare, if any, is excluded from the certificate count *)
  mutable missing_bodies : Fingerprint.t list;
      (** summaries in the pre-prepare whose request bodies we still lack;
          written only by {!set_missing}, which keeps the body-wait index *)
  prepares : (replica_id, view * Fingerprint.t) Hashtbl.t;
  commits : (replica_id, view * Fingerprint.t) Hashtbl.t;
  mutable prepared_at : view option;  (** sticky: highest view prepared in *)
  mutable own_prepare_sent : bool;
  mutable own_commit_sent : bool;
  mutable committed : bool;
  mutable executed : bool;  (** tentatively or finally *)
  mutable finalized : bool;  (** executed and committed *)
  mutable undos : Service.undo list;  (** for rolling back tentative exec *)
}

type t

val create : low:seqno -> window:int -> unit -> t

val low_watermark : t -> seqno

val high_watermark : t -> seqno

val in_window : t -> seqno -> bool
(** [h < seq <= h + L]. *)

val find : t -> seqno -> slot option

val get : t -> seqno -> slot
(** Find or create; raises [Invalid_argument] outside the window. *)

val truncate : t -> new_low:seqno -> unit
(** Advance the low watermark, discarding slots at or below it. *)

val iter : t -> (slot -> unit) -> unit
(** All live slots in ascending sequence order. Slots created by [f]
    above the highest seq live at the call are not visited. *)

val set_missing : t -> slot -> Fingerprint.t list -> unit
(** Set [slot.missing_bodies], keeping the body-wait index in step. *)

val waiting_for : t -> Fingerprint.t -> seqno list
(** The live slots whose [missing_bodies] hold the digest, ascending. *)

val add_prepare : slot -> replica_id -> view -> Fingerprint.t -> unit
(** Latest (view, digest) per replica wins. *)

val add_commit : slot -> replica_id -> view -> Fingerprint.t -> unit

val prepare_count : slot -> view -> Fingerprint.t -> int
(** Prepares matching (view, digest), excluding the pre-prepare. *)

val is_prepared : slot -> f:int -> view -> bool
(** Pre-prepare present in [view] plus [2f] matching prepares from other
    replicas. *)

val is_committed : slot -> f:int -> view -> bool
(** [2f + 1] matching commits with the batch body present. A commit
    certificate alone implies a quorum prepared the digest, so the local
    prepare quorum is not additionally required. *)
