open Types
module Fingerprint = Bft_crypto.Fingerprint

type slot = {
  seq : seqno;
  mutable pre_prepare : (view * Message.batch_entry list) option;
  mutable entry_digests : Fingerprint.t list;
  mutable pp_digest : Fingerprint.t option;
  mutable proposer : replica_id;
      (* who proposed the accepted pre-prepare (-1 if none yet); its
         PRE-PREPARE counts as its prepare, so its PREPARE (if any) must
         not also count towards the certificate *)
  mutable missing_bodies : Fingerprint.t list;
  prepares : (replica_id, view * Fingerprint.t) Hashtbl.t;
  commits : (replica_id, view * Fingerprint.t) Hashtbl.t;
  mutable prepared_at : view option;
  mutable own_prepare_sent : bool;
  mutable own_commit_sent : bool;
  mutable committed : bool;
  mutable executed : bool;
  mutable finalized : bool;
  mutable undos : Service.undo list;
}

(* Slots live in a ring of [window] entries, slot [seq] at [seq mod
   window]. Every live slot is inside (low, low + window], so no two live
   slots share an entry; a stored slot whose [seq] differs from the one
   asked for is a stale alias and reads as absent. [waiting] maps each
   request digest some slot lacks to those slots' seqs, ascending. *)
type t = {
  mutable low : seqno;
  window : int;
  ring : slot array;
  mutable top : seqno;  (* highest seq created since the ring was last emptied *)
  waiting : (Fingerprint.t, seqno list) Hashtbl.t;
}

let new_slot seq =
  {
    seq;
    pre_prepare = None;
    entry_digests = [];
    pp_digest = None;
    proposer = -1;
    missing_bodies = [];
    prepares = Hashtbl.create 8;
    commits = Hashtbl.create 8;
    prepared_at = None;
    own_prepare_sent = false;
    own_commit_sent = false;
    committed = false;
    executed = false;
    finalized = false;
    undos = [];
  }

(* Shared by every empty ring entry; never handed out. *)
let vacant = new_slot min_int

let create ~low ~window () =
  { low; window; ring = Array.make window vacant; top = low; waiting = Hashtbl.create 16 }

let low_watermark t = t.low

let high_watermark t = t.low + t.window

let in_window t seq = seq > t.low && seq <= t.low + t.window

let find t seq =
  if in_window t seq then
    let slot = t.ring.(seq mod t.window) in
    if slot.seq = seq then Some slot else None
  else None

let get t seq =
  if not (in_window t seq) then
    invalid_arg (Printf.sprintf "Log.get: seq %d outside (%d, %d]" seq t.low
                   (t.low + t.window));
  let i = seq mod t.window in
  let slot = t.ring.(i) in
  if slot.seq = seq then slot
  else begin
    let slot = new_slot seq in
    t.ring.(i) <- slot;
    if seq > t.top then t.top <- seq;
    slot
  end

let unwait t digest seq =
  match Hashtbl.find_opt t.waiting digest with
  | None -> ()
  | Some seqs -> (
    match List.filter (fun s -> s <> seq) seqs with
    | [] -> Hashtbl.remove t.waiting digest
    | rest -> Hashtbl.replace t.waiting digest rest)

let rec insert_sorted seq = function
  | [] -> [ seq ]
  | s :: _ as l when seq < s -> seq :: l
  | s :: _ as l when seq = s -> l
  | s :: rest -> s :: insert_sorted seq rest

let set_missing t slot digests =
  match (slot.missing_bodies, digests) with
  | [], [] -> ()
  | old, _ ->
    List.iter (fun d -> unwait t d slot.seq) old;
    slot.missing_bodies <- digests;
    List.iter
      (fun d ->
        let seqs = Option.value (Hashtbl.find_opt t.waiting d) ~default:[] in
        Hashtbl.replace t.waiting d (insert_sorted slot.seq seqs))
      digests

let waiting_for t digest =
  if Hashtbl.length t.waiting = 0 then []
  else Option.value (Hashtbl.find_opt t.waiting digest) ~default:[]

let truncate t ~new_low =
  if new_low > t.low then begin
    for seq = t.low + 1 to Stdlib.min new_low t.top do
      let i = seq mod t.window in
      let slot = t.ring.(i) in
      if slot.seq = seq then begin
        set_missing t slot [];
        t.ring.(i) <- vacant
      end
    done;
    t.low <- new_low;
    if t.top < new_low then t.top <- new_low
  end

let iter t f =
  for seq = t.low + 1 to t.top do
    let slot = t.ring.(seq mod t.window) in
    if slot.seq = seq then f slot
  done

(* A replica may re-send a prepare for the same slot in a later view; the
   latest view wins so certificate counting stays per-view. *)
let add_latest table replica view digest =
  match Hashtbl.find_opt table replica with
  | Some (v, _) when v > view -> ()
  | _ -> Hashtbl.replace table replica (view, digest)

let add_prepare slot replica view digest = add_latest slot.prepares replica view digest

let add_commit slot replica view digest = add_latest slot.commits replica view digest

let count_matching table view digest =
  Hashtbl.fold
    (fun _ (v, d) acc ->
      if v = view && Fingerprint.equal d digest then acc + 1 else acc)
    table 0

let prepare_count slot view digest = count_matching slot.prepares view digest

let commit_count slot view digest = count_matching slot.commits view digest

let is_prepared slot ~f view =
  match (slot.pre_prepare, slot.pp_digest) with
  | Some (v, _), Some digest when v = view ->
    (* The proposer's own PREPARE (if it ever sent one, e.g. before it
       became the proposer via a view change) must not double-count with
       its PRE-PREPARE: a certificate is 2f+1 *distinct* replicas. In
       single-primary mode the primary's prepares are already dropped at
       receive time, so the subtraction is a no-op there. *)
    let own =
      match Hashtbl.find_opt slot.prepares slot.proposer with
      | Some (v', d) when v' = view && Fingerprint.equal d digest -> 1
      | _ -> 0
    in
    List.is_empty slot.missing_bodies && prepare_count slot view digest - own >= 2 * f
  | _ -> false

(* A certificate of 2f+1 matching commits implies at least f+1 correct
   replicas prepared this digest, so no conflicting batch can have prepared
   at this sequence number: the local prepare quorum is not required (and
   insisting on it can deadlock a replica whose prepares were lost while
   everyone else moved on). The batch body must still be present. *)
let is_committed slot ~f view =
  match (slot.pre_prepare, slot.pp_digest) with
  | Some _, Some digest ->
    List.is_empty slot.missing_bodies && commit_count slot view digest >= (2 * f) + 1
  | _ -> false
