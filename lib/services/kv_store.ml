module Payload = Bft_core.Payload
module Service = Bft_core.Service
module Enc = Bft_util.Codec.Enc
module Dec = Bft_util.Codec.Dec
module Fingerprint = Bft_crypto.Fingerprint
module Keyhash = Bft_util.Keyhash

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of { key : string; expected : string option; update : string }
  | Prepare of {
      txn : string;
      decision : int;
      participants : int list;
      ops : op list;
    }
  | Commit of string
  | Abort of string
  | Txn_status of string
  | Snapshot_slot of { slot : int; slots : int }
  | Install of { slot : int; slots : int; bindings : (string * string) list }
  | Drop_slot of { slot : int; slots : int }

type result =
  | Value of string option
  | Stored
  | Cas_result of bool
  | Error of string
  | Prepared of bool
  | Bindings of (string * string) list
  | Txn_state of { state : int; participants : int list }

let txn_unknown = 0
let txn_prepared = 1
let txn_committed = 2
let txn_aborted = 3

(* --- wire codec ------------------------------------------------------- *)

let rec encode_op enc op =
  match op with
  | Get key ->
    Enc.u8 enc 0;
    Enc.bytes enc key
  | Put (key, value) ->
    Enc.u8 enc 1;
    Enc.bytes enc key;
    Enc.bytes enc value
  | Delete key ->
    Enc.u8 enc 2;
    Enc.bytes enc key
  | Cas { key; expected; update } ->
    Enc.u8 enc 3;
    Enc.bytes enc key;
    Enc.option enc Enc.bytes expected;
    Enc.bytes enc update
  | Prepare { txn; decision; participants; ops } ->
    Enc.u8 enc 4;
    Enc.bytes enc txn;
    Enc.u16 enc decision;
    Enc.list enc Enc.u16 participants;
    Enc.list enc encode_op ops
  | Commit txn ->
    Enc.u8 enc 5;
    Enc.bytes enc txn
  | Abort txn ->
    Enc.u8 enc 6;
    Enc.bytes enc txn
  | Txn_status txn ->
    Enc.u8 enc 7;
    Enc.bytes enc txn
  | Snapshot_slot { slot; slots } ->
    Enc.u8 enc 8;
    Enc.u16 enc slot;
    Enc.u16 enc slots
  | Install { slot; slots; bindings } ->
    Enc.u8 enc 9;
    Enc.u16 enc slot;
    Enc.u16 enc slots;
    Enc.list enc
      (fun enc (k, v) ->
        Enc.bytes enc k;
        Enc.bytes enc v)
      bindings
  | Drop_slot { slot; slots } ->
    Enc.u8 enc 10;
    Enc.u16 enc slot;
    Enc.u16 enc slots

let op_payload op =
  let enc = Enc.create () in
  encode_op enc op;
  Payload.of_string (Enc.to_string enc)

let rec decode_op dec =
  match Dec.u8 dec with
  | 0 -> Get (Dec.bytes dec)
  | 1 ->
    let key = Dec.bytes dec in
    let value = Dec.bytes dec in
    Put (key, value)
  | 2 -> Delete (Dec.bytes dec)
  | 3 ->
    let key = Dec.bytes dec in
    let expected = Dec.option dec Dec.bytes in
    let update = Dec.bytes dec in
    Cas { key; expected; update }
  | 4 ->
    let txn = Dec.bytes dec in
    let decision = Dec.u16 dec in
    let participants = Dec.list dec Dec.u16 in
    let ops = Dec.list dec decode_op in
    Prepare { txn; decision; participants; ops }
  | 5 -> Commit (Dec.bytes dec)
  | 6 -> Abort (Dec.bytes dec)
  | 7 -> Txn_status (Dec.bytes dec)
  | 8 ->
    let slot = Dec.u16 dec in
    let slots = Dec.u16 dec in
    Snapshot_slot { slot; slots }
  | 9 ->
    let slot = Dec.u16 dec in
    let slots = Dec.u16 dec in
    let bindings =
      Dec.list dec (fun dec ->
          let k = Dec.bytes dec in
          let v = Dec.bytes dec in
          (k, v))
    in
    Install { slot; slots; bindings }
  | 10 ->
    let slot = Dec.u16 dec in
    let slots = Dec.u16 dec in
    Drop_slot { slot; slots }
  | tag -> raise (Bft_util.Codec.Decode_error (Printf.sprintf "kv op tag %d" tag))

let op_of_payload (p : Payload.t) =
  let dec = Dec.of_string p.Payload.data in
  match
    let op = decode_op dec in
    (* A corrupted or maliciously extended encoding must not silently
       decode as a valid shorter operation. *)
    Dec.expect_end dec;
    op
  with
  | op -> Some op
  | exception Bft_util.Codec.Decode_error _ -> None

let result_payload result =
  let enc = Enc.create () in
  (match result with
  | Value v ->
    Enc.u8 enc 0;
    Enc.option enc Enc.bytes v
  | Stored -> Enc.u8 enc 1
  | Cas_result ok ->
    Enc.u8 enc 2;
    Enc.bool enc ok
  | Error msg ->
    Enc.u8 enc 3;
    Enc.bytes enc msg
  | Prepared ok ->
    Enc.u8 enc 4;
    Enc.bool enc ok
  | Bindings bs ->
    Enc.u8 enc 5;
    Enc.list enc
      (fun enc (k, v) ->
        Enc.bytes enc k;
        Enc.bytes enc v)
      bs
  | Txn_state { state; participants } ->
    Enc.u8 enc 6;
    Enc.u8 enc state;
    Enc.list enc Enc.u16 participants);
  Payload.of_string (Enc.to_string enc)

let result_of_payload (p : Payload.t) =
  let dec = Dec.of_string p.Payload.data in
  match
    let r =
      match Dec.u8 dec with
      | 0 -> Value (Dec.option dec Dec.bytes)
      | 1 -> Stored
      | 2 -> Cas_result (Dec.bool dec)
      | 3 -> Error (Dec.bytes dec)
      | 4 -> Prepared (Dec.bool dec)
      | 5 ->
        Bindings
          (Dec.list dec (fun dec ->
               let k = Dec.bytes dec in
               let v = Dec.bytes dec in
               (k, v)))
      | 6 ->
        let state = Dec.u8 dec in
        let participants = Dec.list dec Dec.u16 in
        Txn_state { state; participants }
      | tag ->
        raise
          (Bft_util.Codec.Decode_error (Printf.sprintf "kv result tag %d" tag))
    in
    Dec.expect_end dec;
    r
  with
  | r -> r
  | exception Bft_util.Codec.Decode_error _ -> Error "undecodable result"

let is_read_only_op = function
  | Get _ -> true
  | Put _ | Delete _ | Cas _ | Prepare _ | Commit _ | Abort _ | Txn_status _
  | Snapshot_slot _ | Install _ | Drop_slot _ ->
    false

(* --- replicated state ------------------------------------------------- *)

type txn_record = {
  txr_decision : int;
  txr_participants : int list;
  txr_ops : op list;
}

module Smap = Map.Make (String)

(* A binding keeps its AdHash leaf, so replacing or removing it subtracts
   the leaf without hashing the old value again. *)
type entry = { value : string; leaf : Fingerprint.t }

(* The tables are persistent maps: a captured snapshot holds the version it
   saw while execution moves on (copy-on-write for free), and iteration is
   in [String.compare] order, the order every encoding below uses. *)
type store = {
  mutable table : entry Smap.t;
  sum : int array;  (* the leaves' sum mod 2^128: four 32-bit limbs, low first *)
  mutable count : int;  (* bindings in [table] *)
  mutable table_bytes : int;  (* their encoded length *)
  mutable dirty : int;
  mutable locks : string Smap.t;  (* key -> holding transaction *)
  mutable prepared : txn_record Smap.t;  (* txn -> prepared record *)
  decided : (string, bool) Hashtbl.t;  (* txn -> committed? *)
  mutable decided_log : string list;  (* newest first, bounds [decided] *)
  mutable decided_count : int;
}

(* The decided table is the presumed-abort memory: it must outlive the
   prepared records (a late PREPARE retransmission has to see the abort),
   but it cannot grow forever. Far larger than any campaign's transaction
   count, trimmed amortized-O(1) by rebuilding at twice the cap. *)
let decided_cap = 4096

let create_store () =
  {
    table = Smap.empty;
    sum = Array.make 4 0;
    count = 0;
    table_bytes = 0;
    dirty = 0;
    locks = Smap.empty;
    prepared = Smap.empty;
    decided = Hashtbl.create 16;
    decided_log = [];
    decided_count = 0;
  }

let no_undo () = ()

let undo_all undos () = List.iter (fun u -> u ()) (List.rev undos)

(* --- the binding table ------------------------------------------------- *)

(* Add ([sign] = 1) or remove ([sign] = -1) one binding's share of the
   running totals. The digest is an AdHash (Bellare and Micciancio): the sum
   of per-binding MD5 leaves modulo 2^128, so a write updates it in O(1) and
   the result depends only on the set of bindings, as with the paper's
   incremental partition digests. *)
let account store key e sign =
  let carry = ref 0 in
  for i = 0 to 3 do
    let leaf = Int32.to_int (String.get_int32_le e.leaf (4 * i)) land 0xFFFF_FFFF in
    let limb = store.sum.(i) + (sign * leaf) + !carry in
    store.sum.(i) <- limb land 0xFFFF_FFFF;
    carry := limb asr 32
  done;
  store.count <- store.count + sign;
  store.table_bytes <-
    store.table_bytes + (sign * (8 + String.length key + String.length e.value))

(* The only writers of [table]. Each returns the undo that puts the previous
   binding back, leaf and all. *)
let rec bind store key e =
  let previous = Smap.find_opt key store.table in
  Option.iter (fun old -> account store key old (-1)) previous;
  store.table <- Smap.add key e store.table;
  account store key e 1;
  reinstate store key previous

and unbind store key =
  match Smap.find_opt key store.table with
  | None -> no_undo
  | Some old as previous ->
    store.table <- Smap.remove key store.table;
    account store key old (-1);
    reinstate store key previous

and reinstate store key = function
  | Some old -> fun () -> ignore (bind store key old : Service.undo)
  | None -> fun () -> ignore (unbind store key : Service.undo)

let put store key value =
  bind store key { value; leaf = Fingerprint.of_parts [ key; value ] }

let find store key =
  match Smap.find_opt key store.table with
  | Some e -> Some e.value
  | None -> None

(* --- operations -------------------------------------------------------- *)

(* Record a terminal decision; returns the undo for tentative rollback.
   Undos run newest-first, so the entry to drop is always the log head. *)
let record_decision store txn committed =
  if Hashtbl.mem store.decided txn then no_undo
  else begin
    Hashtbl.replace store.decided txn committed;
    store.decided_log <- txn :: store.decided_log;
    store.decided_count <- store.decided_count + 1;
    if store.decided_count > 2 * decided_cap then begin
      let rec keep i = function
        | [] -> []
        | rest when i = decided_cap ->
          List.iter (fun t -> Hashtbl.remove store.decided t) rest;
          []
        | x :: rest -> x :: keep (i + 1) rest
      in
      store.decided_log <- keep 0 store.decided_log;
      store.decided_count <- decided_cap
    end;
    fun () ->
      Hashtbl.remove store.decided txn;
      match store.decided_log with
      | x :: rest when String.equal x txn ->
        store.decided_log <- rest;
        store.decided_count <- store.decided_count - 1
      | _ -> ()
  end

let locked_error store key =
  let txn = Smap.find key store.locks in
  let decision =
    match Smap.find_opt txn store.prepared with
    | Some r -> r.txr_decision
    | None -> 0
  in
  Error (Printf.sprintf "locked:%d:%s" decision txn)

let write_key = function
  | Put (k, _) | Delete k | Cas { key = k; _ } -> Some k
  | _ -> None

(* Unconditional application of a validated write (a CAS whose test
   passed, or whose key has been locked since a prepare validated it,
   applies its update directly). Only an actual mutation dirties the store:
   deleting a missing key must not inflate [modified_since_checkpoint] (it
   would manufacture checkpoint pressure out of no-ops). *)
let apply_write store op =
  match op with
  | Put (key, value) | Cas { key; update = value; _ } ->
    store.dirty <- store.dirty + String.length key + String.length value;
    put store key value
  | Delete key ->
    if Smap.mem key store.table then begin
      store.dirty <- store.dirty + String.length key;
      unbind store key
    end
    else no_undo
  | _ -> no_undo

let relock store keys txn =
  List.iter (fun k -> store.locks <- Smap.add k txn store.locks) keys

let release_locks store txn =
  let released, kept = Smap.partition (fun _ holder -> String.equal holder txn) store.locks in
  store.locks <- kept;
  List.map fst (Smap.bindings released)

let prepare store ~txn ~decision ~participants ~ops =
  match Hashtbl.find_opt store.decided txn with
  (* The decision already happened (possibly recorded by a recovery-driven
     abort before this retransmitted PREPARE arrived): vote accordingly. *)
  | Some committed -> (Prepared committed, no_undo)
  | None ->
    if Smap.mem txn store.prepared then (Prepared true, no_undo)
    else begin
      let unlocked_or_ours key =
        match Smap.find_opt key store.locks with
        | Some holder -> String.equal holder txn
        | None -> true
      in
      let valid =
        List.for_all
          (fun op ->
            match op with
            | Put (key, _) | Delete key -> unlocked_or_ours key
            | Cas { key; expected; _ } ->
              unlocked_or_ours key && find store key = expected
            | _ -> false (* only plain writes may ride in a transaction *))
          ops
      in
      if not valid then (Prepared false, no_undo)
      else begin
        let locked =
          List.filter_map
            (fun op ->
              match write_key op with
              | Some key when not (Smap.mem key store.locks) ->
                store.locks <- Smap.add key txn store.locks;
                Some key
              | _ -> None)
            ops
        in
        store.prepared <-
          Smap.add txn
            { txr_decision = decision; txr_participants = participants; txr_ops = ops }
            store.prepared;
        store.dirty <-
          store.dirty + String.length txn
          + List.fold_left (fun acc k -> acc + String.length k) 0 locked;
        let undo () =
          store.prepared <- Smap.remove txn store.prepared;
          List.iter (fun k -> store.locks <- Smap.remove k store.locks) locked
        in
        (Prepared true, undo)
      end
    end

let commit store txn =
  match Hashtbl.find_opt store.decided txn with
  | Some true -> (Stored, no_undo)
  | Some false -> (Error "aborted", no_undo)
  | None -> (
    match Smap.find_opt txn store.prepared with
    | None -> (Error "unknown", no_undo)
    | Some record ->
      let released = release_locks store txn in
      let undos = List.map (apply_write store) record.txr_ops in
      store.prepared <- Smap.remove txn store.prepared;
      let undo_decision = record_decision store txn true in
      store.dirty <- store.dirty + String.length txn;
      let undo () =
        undo_decision ();
        store.prepared <- Smap.add txn record store.prepared;
        undo_all undos ();
        relock store released txn
      in
      (Stored, undo))

let abort store txn =
  match Hashtbl.find_opt store.decided txn with
  | Some true -> (Error "committed", no_undo)
  | Some false -> (Stored, no_undo)
  | None ->
    (* Presumed abort: record the decision even for a transaction this
       replica never prepared, so a late PREPARE votes no instead of
       re-acquiring locks for a coordinator that already gave up. *)
    let released = release_locks store txn in
    let record = Smap.find_opt txn store.prepared in
    store.prepared <- Smap.remove txn store.prepared;
    let undo_decision = record_decision store txn false in
    store.dirty <- store.dirty + String.length txn;
    let undo () =
      undo_decision ();
      Option.iter (fun r -> store.prepared <- Smap.add txn r store.prepared) record;
      relock store released txn
    in
    (Stored, undo)

let slot_locked store ~slot ~slots =
  Smap.exists (fun key _ -> Keyhash.slot_of_key ~slots key = slot) store.locks

let slot_bindings store ~slot ~slots =
  Smap.fold
    (fun k e acc ->
      if Keyhash.slot_of_key ~slots k = slot then (k, e.value) :: acc else acc)
    store.table []
  |> List.rev

let execute store op =
  match op with
  | Get key -> (Value (find store key), no_undo)
  | Put (key, _) | Delete key ->
    if Smap.mem key store.locks then (locked_error store key, no_undo)
    else (Stored, apply_write store op)
  | Cas { key; expected; _ } ->
    if Smap.mem key store.locks then (locked_error store key, no_undo)
    else if find store key = expected then (Cas_result true, apply_write store op)
    else (Cas_result false, no_undo)
  | Prepare { txn; decision; participants; ops } ->
    prepare store ~txn ~decision ~participants ~ops
  | Commit txn -> commit store txn
  | Abort txn -> abort store txn
  | Txn_status txn -> (
    match Hashtbl.find_opt store.decided txn with
    | Some true -> (Txn_state { state = txn_committed; participants = [] }, no_undo)
    | Some false -> (Txn_state { state = txn_aborted; participants = [] }, no_undo)
    | None -> (
      match Smap.find_opt txn store.prepared with
      | Some r ->
        ( Txn_state { state = txn_prepared; participants = r.txr_participants },
          no_undo )
      | None -> (Txn_state { state = txn_unknown; participants = [] }, no_undo)))
  | Snapshot_slot { slot; slots } ->
    if slots <= 0 || slot < 0 || slot >= slots then (Error "bad slot", no_undo)
    else if slot_locked store ~slot ~slots then
      (* Refusing a slot with prepared locks is what makes migration safe:
         a successful snapshot proves no transaction can mutate the slot
         at the donor until new traffic is admitted — and new traffic is
         gated while the slot migrates. *)
      (Error "locked", no_undo)
    else (Bindings (slot_bindings store ~slot ~slots), no_undo)
  | Install { slot; slots; bindings } ->
    if slots <= 0 || slot < 0 || slot >= slots then (Error "bad slot", no_undo)
    else if
      List.exists (fun (k, _) -> Keyhash.slot_of_key ~slots k <> slot) bindings
    then (Error "binding outside slot", no_undo)
    else
      (Stored, undo_all (List.map (fun (k, v) -> apply_write store (Put (k, v))) bindings))
  | Drop_slot { slot; slots } ->
    if slots <= 0 || slot < 0 || slot >= slots then (Error "bad slot", no_undo)
    else
      let dropped = slot_bindings store ~slot ~slots in
      (Stored, undo_all (List.map (fun (k, _) -> apply_write store (Delete k)) dropped))

(* --- digest / snapshot encoding --------------------------------------- *)

let txn_state_empty store =
  Smap.is_empty store.locks && Smap.is_empty store.prepared && store.decided_count = 0

(* Sectioned encodings are flagged by a leading length no legacy key can
   have (a 4 GiB key); a store that never touched the transaction layer
   encodes exactly as it always did, byte for byte, which is what keeps
   checkpoint digest and snapshot costs — and with them the golden bench
   surface — untouched while the machinery is unused. *)
let sectioned_marker = 0xFFFFFFFF

(* The one encoder of the bindings. *)
let encode_bindings enc table =
  Smap.iter
    (fun k e ->
      Enc.bytes enc k;
      Enc.bytes enc e.value)
    table

(* Locks, prepared records and decisions: small, and encoded eagerly. *)
let txn_sections store =
  let enc = Enc.create () in
  Enc.list enc
    (fun enc (k, t) ->
      Enc.bytes enc k;
      Enc.bytes enc t)
    (Smap.bindings store.locks);
  Enc.list enc
    (fun enc (txn, r) ->
      Enc.bytes enc txn;
      Enc.u16 enc r.txr_decision;
      Enc.list enc Enc.u16 r.txr_participants;
      Enc.list enc encode_op r.txr_ops)
    (Smap.bindings store.prepared);
  Enc.list enc
    (fun enc txn ->
      Enc.bytes enc txn;
      Enc.bool enc (Hashtbl.find store.decided txn))
    store.decided_log;
  Enc.to_string enc

(* O(locks + prepared + decided): the bindings enter through their sum. *)
let state_digest store =
  let sum = Bytes.create 16 in
  Array.iteri (fun i limb -> Bytes.set_int32_le sum (4 * i) (Int32.of_int limb)) store.sum;
  Fingerprint.of_parts
    [
      Bytes.unsafe_to_string sum;
      string_of_int store.count;
      (if txn_state_empty store then "" else txn_sections store);
    ]

(* The bindings are the map as of now; later writes build new maps. Only
   the small transaction sections are encoded before the payload is
   forced. *)
let capture store =
  let table = store.table and count = store.count in
  let sections = if txn_state_empty store then None else Some (txn_sections store) in
  let length =
    match sections with
    | None -> store.table_bytes
    | Some s -> 8 + store.table_bytes + String.length s
  in
  let payload =
    lazy
      (let enc = Enc.create ~initial:length () in
       (match sections with
       | None -> encode_bindings enc table
       | Some s ->
         Enc.u32 enc sectioned_marker;
         Enc.u32 enc count;
         encode_bindings enc table;
         Enc.raw enc s);
       Payload.of_string (Enc.to_string enc))
  in
  { Service.length; pad = 0; payload }

let is_sectioned data =
  String.length data >= 4 && String.get_int32_le data 0 = 0xFFFFFFFFl

let restore_store store data =
  store.table <- Smap.empty;
  Array.fill store.sum 0 4 0;
  store.count <- 0;
  store.table_bytes <- 0;
  store.locks <- Smap.empty;
  store.prepared <- Smap.empty;
  Hashtbl.reset store.decided;
  store.decided_log <- [];
  store.decided_count <- 0;
  store.dirty <- 0;
  let dec = Dec.of_string data in
  let read_binding () =
    let k = Dec.bytes dec in
    let v = Dec.bytes dec in
    ignore (put store k v : Service.undo)
  in
  if is_sectioned data then begin
    ignore (Dec.u32 dec);
    for _ = 1 to Dec.u32 dec do
      read_binding ()
    done;
    let locks =
      Dec.list dec (fun dec ->
          let k = Dec.bytes dec in
          let t = Dec.bytes dec in
          (k, t))
    in
    List.iter (fun (k, t) -> store.locks <- Smap.add k t store.locks) locks;
    let prepared =
      Dec.list dec (fun dec ->
          let txn = Dec.bytes dec in
          let txr_decision = Dec.u16 dec in
          let txr_participants = Dec.list dec Dec.u16 in
          let txr_ops = Dec.list dec decode_op in
          (txn, { txr_decision; txr_participants; txr_ops }))
    in
    List.iter (fun (t, r) -> store.prepared <- Smap.add t r store.prepared) prepared;
    let decided =
      Dec.list dec (fun dec ->
          let txn = Dec.bytes dec in
          let committed = Dec.bool dec in
          (txn, committed))
    in
    List.iter (fun (t, c) -> Hashtbl.replace store.decided t c) decided;
    store.decided_log <- List.map fst decided;
    store.decided_count <- List.length decided
  end
  else
    while not (Dec.at_end dec) do
      read_binding ()
    done

(* --- auditing hooks (tests and chaos campaigns) ------------------------ *)

let store_find = find

let store_locks store = Smap.bindings store.locks

let store_prepared_txns store = List.map fst (Smap.bindings store.prepared)

let store_decision store txn = Hashtbl.find_opt store.decided txn

let size store = store.count

(* --- service wrapper --------------------------------------------------- *)

let exec_base_cost = 1e-6

let service_of_store store =
  {
    Service.execute =
      (fun ~client:_ ~op ->
        match op_of_payload op with
        | None -> (result_payload (Error "undecodable operation"), no_undo)
        | Some op ->
          let result, undo = execute store op in
          (result_payload result, undo));
    is_read_only =
      (fun op ->
        match op_of_payload op with
        | Some op -> is_read_only_op op
        | None -> false);
    execute_cost =
      (fun op -> exec_base_cost +. (float_of_int (Payload.size op) *. 2e-9));
    state_digest = (fun () -> state_digest store);
    modified_since_checkpoint = (fun () -> store.dirty);
    checkpoint_taken = (fun () -> store.dirty <- 0);
    snapshot = (fun () -> Lazy.force (capture store).Service.payload);
    capture = (fun () -> capture store);
    restore = (fun p -> restore_store store p.Payload.data);
  }

let service () = service_of_store (create_store ())
