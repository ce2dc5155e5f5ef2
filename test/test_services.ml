(* Tests for the example services: KV store and counter. *)

module Kv = Bft_services.Kv_store
module Counter = Bft_services.Counter
module Payload = Bft_core.Payload
module Service = Bft_core.Service
module Fingerprint = Bft_crypto.Fingerprint

let check = Alcotest.check

let exec svc op =
  let result, undo = svc.Service.execute ~client:1 ~op:(Kv.op_payload op) in
  (Kv.result_of_payload result, undo)

let test_kv_semantics () =
  let svc = Kv.service () in
  (match exec svc (Kv.Get "missing") with
  | Kv.Value None, _ -> ()
  | _ -> Alcotest.fail "missing get");
  (match exec svc (Kv.Put ("k", "v1")) with
  | Kv.Stored, _ -> ()
  | _ -> Alcotest.fail "put");
  (match exec svc (Kv.Get "k") with
  | Kv.Value (Some "v1"), _ -> ()
  | _ -> Alcotest.fail "get");
  (match exec svc (Kv.Cas { key = "k"; expected = Some "v1"; update = "v2" }) with
  | Kv.Cas_result true, _ -> ()
  | _ -> Alcotest.fail "cas hit");
  (match exec svc (Kv.Cas { key = "k"; expected = Some "v1"; update = "v3" }) with
  | Kv.Cas_result false, _ -> ()
  | _ -> Alcotest.fail "cas miss");
  (match exec svc (Kv.Get "k") with
  | Kv.Value (Some "v2"), _ -> ()
  | _ -> Alcotest.fail "cas effect");
  (match exec svc (Kv.Delete "k") with
  | Kv.Stored, _ -> ()
  | _ -> Alcotest.fail "delete");
  match exec svc (Kv.Get "k") with
  | Kv.Value None, _ -> ()
  | _ -> Alcotest.fail "deleted"

let test_kv_cas_on_absent () =
  let svc = Kv.service () in
  (match exec svc (Kv.Cas { key = "new"; expected = None; update = "v" }) with
  | Kv.Cas_result true, _ -> ()
  | _ -> Alcotest.fail "cas-create");
  match exec svc (Kv.Get "new") with
  | Kv.Value (Some "v"), _ -> ()
  | _ -> Alcotest.fail "created"

let test_kv_undo () =
  let svc = Kv.service () in
  ignore (exec svc (Kv.Put ("a", "1")));
  let d = svc.Service.state_digest () in
  let _, undo_put = exec svc (Kv.Put ("a", "2")) in
  let _, undo_del = exec svc (Kv.Delete "a") in
  undo_del ();
  undo_put ();
  check Alcotest.bool "digest restored" true
    (Fingerprint.equal d (svc.Service.state_digest ()));
  match exec svc (Kv.Get "a") with
  | Kv.Value (Some "1"), _ -> ()
  | _ -> Alcotest.fail "value restored"

let test_kv_snapshot_restore () =
  let svc = Kv.service () in
  ignore (exec svc (Kv.Put ("x", "1")));
  ignore (exec svc (Kv.Put ("y", "2")));
  let snap = svc.Service.snapshot () in
  let store2 = Kv.create_store () in
  let svc2 = Kv.service_of_store store2 in
  svc2.Service.restore snap;
  check Alcotest.bool "digest equal" true
    (Fingerprint.equal (svc.Service.state_digest ()) (svc2.Service.state_digest ()));
  check Alcotest.int "size" 2 (Kv.size store2)

let test_kv_read_only () =
  check Alcotest.bool "get" true (Kv.is_read_only_op (Kv.Get "k"));
  check Alcotest.bool "put" false (Kv.is_read_only_op (Kv.Put ("k", "v")));
  check Alcotest.bool "cas" false
    (Kv.is_read_only_op (Kv.Cas { key = "k"; expected = None; update = "v" }));
  let svc = Kv.service () in
  check Alcotest.bool "service agrees" true
    (svc.Service.is_read_only (Kv.op_payload (Kv.Get "k")));
  check Alcotest.bool "garbage rw" false (svc.Service.is_read_only (Payload.of_string "\xff"))

let test_kv_undecodable_op () =
  let svc = Kv.service () in
  let result, _ = svc.Service.execute ~client:1 ~op:(Payload.of_string "\xff\xff") in
  match Kv.result_of_payload result with
  | Kv.Error _ -> ()
  | _ -> Alcotest.fail "expected error"

let test_kv_dirty_tracking () =
  let svc = Kv.service () in
  check Alcotest.int "clean" 0 (svc.Service.modified_since_checkpoint ());
  ignore (exec svc (Kv.Put ("key", "value")));
  check Alcotest.bool "dirty" true (svc.Service.modified_since_checkpoint () > 0);
  svc.Service.checkpoint_taken ();
  check Alcotest.int "reset" 0 (svc.Service.modified_since_checkpoint ())

let test_kv_delete_missing_not_dirty () =
  (* Regression: deleting an absent key used to count as a mutation, so a
     no-op churned checkpoint state. Only actual mutations may bump the
     dirty counter. *)
  let svc = Kv.service () in
  (match exec svc (Kv.Delete "never-existed") with
  | Kv.Stored, _ -> ()
  | _ -> Alcotest.fail "delete of missing key");
  check Alcotest.int "no-op delete leaves store clean" 0
    (svc.Service.modified_since_checkpoint ());
  ignore (exec svc (Kv.Put ("k", "v")));
  let after_put = svc.Service.modified_since_checkpoint () in
  check Alcotest.bool "real put is dirty" true (after_put > 0);
  ignore (exec svc (Kv.Delete "k"));
  check Alcotest.bool "real delete is dirty" true
    (svc.Service.modified_since_checkpoint () > after_put)

let with_trailing_byte p = Payload.of_string (p.Payload.data ^ "\x00")

let test_kv_codec_strictness () =
  (* Regression: the decoders used to accept payloads with trailing bytes,
     so two distinct wire strings could decode to the same operation. *)
  let ops =
    [
      Kv.Put ("k", "v");
      Kv.Get "k";
      Kv.Prepare
        {
          txn = "t1";
          decision = 0;
          participants = [ 0; 1 ];
          ops = [ Kv.Put ("a", "1"); Kv.Delete "b" ];
        };
      Kv.Snapshot_slot { slot = 3; slots = 64 };
    ]
  in
  List.iter
    (fun op ->
      let p = Kv.op_payload op in
      (match Kv.op_of_payload p with
      | Some op' when op' = op -> ()
      | _ -> Alcotest.fail "clean op payload must decode to itself");
      match Kv.op_of_payload (with_trailing_byte p) with
      | None -> ()
      | Some _ -> Alcotest.fail "trailing garbage accepted on op")
    ops;
  List.iter
    (fun result ->
      let p = Kv.result_payload result in
      (match Kv.result_of_payload p with
      | r when r = result -> ()
      | _ -> Alcotest.fail "clean result payload must decode to itself");
      match Kv.result_of_payload (with_trailing_byte p) with
      | Kv.Error "undecodable result" -> ()
      | _ -> Alcotest.fail "trailing garbage accepted on result")
    [
      Kv.Stored;
      Kv.Value (Some "v");
      Kv.Prepared true;
      Kv.Bindings [ ("a", "1") ];
      Kv.Txn_state { state = Kv.txn_prepared; participants = [ 0; 1 ] };
    ]

let test_kv_txn_semantics () =
  let svc = Kv.service () in
  ignore (exec svc (Kv.Put ("a", "old")));
  let prepare =
    Kv.Prepare
      {
        txn = "t1";
        decision = 0;
        participants = [ 0; 1 ];
        ops = [ Kv.Put ("a", "new"); Kv.Put ("b", "fresh") ];
      }
  in
  (match exec svc prepare with
  | Kv.Prepared true, _ -> ()
  | _ -> Alcotest.fail "prepare must vote yes");
  (match exec svc prepare with
  | Kv.Prepared true, _ -> ()
  | _ -> Alcotest.fail "re-prepare of own txn must stay yes");
  (* Locked keys refuse single-key writes, naming the lock holder. *)
  (match exec svc (Kv.Put ("a", "sneak")) with
  | Kv.Error "locked:0:t1", _ -> ()
  | _ -> Alcotest.fail "locked key must reject writes with holder info");
  (* ... and a conflicting transaction's prepare votes no. *)
  (match
     exec svc
       (Kv.Prepare
          {
            txn = "t2";
            decision = 0;
            participants = [ 0 ];
            ops = [ Kv.Delete "b" ];
          })
   with
  | Kv.Prepared false, _ -> ()
  | _ -> Alcotest.fail "conflicting prepare must vote no");
  (match exec svc (Kv.Txn_status "t1") with
  | Kv.Txn_state { state; participants }, _
    when state = Kv.txn_prepared && participants = [ 0; 1 ] -> ()
  | _ -> Alcotest.fail "status of prepared txn");
  (match exec svc (Kv.Commit "t1") with
  | Kv.Stored, _ -> ()
  | _ -> Alcotest.fail "commit");
  (match exec svc (Kv.Get "a") with
  | Kv.Value (Some "new"), _ -> ()
  | _ -> Alcotest.fail "committed write visible");
  (match exec svc (Kv.Put ("a", "unlocked")) with
  | Kv.Stored, _ -> ()
  | _ -> Alcotest.fail "commit must release locks");
  (match exec svc (Kv.Commit "t1") with
  | Kv.Stored, _ -> ()
  | _ -> Alcotest.fail "commit is idempotent");
  (match exec svc (Kv.Abort "t1") with
  | Kv.Error "committed", _ -> ()
  | _ -> Alcotest.fail "abort after commit must report the decision");
  (* Presumed abort: aborting an unknown transaction records the decision,
     so its late prepare votes no and its commit fails. *)
  (match exec svc (Kv.Abort "late") with
  | Kv.Stored, _ -> ()
  | _ -> Alcotest.fail "abort of unknown txn");
  (match
     exec svc
       (Kv.Prepare
          {
            txn = "late";
            decision = 0;
            participants = [ 0 ];
            ops = [ Kv.Put ("c", "x") ];
          })
   with
  | Kv.Prepared false, _ -> ()
  | _ -> Alcotest.fail "late prepare after abort must vote no");
  match exec svc (Kv.Commit "late") with
  | Kv.Error "aborted", _ -> ()
  | _ -> Alcotest.fail "commit after abort must fail"

let test_kv_prepare_undo_byte_identical () =
  (* Tentative execution: undoing a prepare must leave the snapshot — and
     so the checkpoint digest — byte-identical, including falling back to
     the legacy (pre-transaction) encoding. *)
  let svc = Kv.service () in
  ignore (exec svc (Kv.Put ("a", "1")));
  let before = svc.Service.snapshot () in
  let _, undo =
    exec svc
      (Kv.Prepare
         {
           txn = "tmp";
           decision = 0;
           participants = [ 0 ];
           ops = [ Kv.Put ("a", "2") ];
         })
  in
  undo ();
  check Alcotest.bool "snapshot bytes identical after undo" true
    (Payload.equal before (svc.Service.snapshot ()))

let test_kv_txn_snapshot_restore () =
  (* A store carrying live transaction state (locks + decisions) must
     survive a snapshot/restore round-trip digest-exact. *)
  let svc = Kv.service () in
  ignore (exec svc (Kv.Put ("a", "1")));
  ignore
    (exec svc
       (Kv.Prepare
          {
            txn = "t1";
            decision = 0;
            participants = [ 0; 1 ];
            ops = [ Kv.Put ("b", "2") ];
          }));
  ignore (exec svc (Kv.Abort "old"));
  let svc2 = Kv.service () in
  svc2.Service.restore (svc.Service.snapshot ());
  check Alcotest.bool "digest equal" true
    (Fingerprint.equal (svc.Service.state_digest ()) (svc2.Service.state_digest ()));
  (* The restored replica agrees on lock state and decisions. *)
  (match exec svc2 (Kv.Put ("b", "sneak")) with
  | Kv.Error "locked:0:t1", _ -> ()
  | _ -> Alcotest.fail "restored lock must hold");
  match exec svc2 (Kv.Commit "old") with
  | Kv.Error "aborted", _ -> ()
  | _ -> Alcotest.fail "restored decision must hold"

let test_kv_migration_ops () =
  let slots = 8 in
  let svc = Kv.service () in
  ignore (exec svc (Kv.Put ("m1", "v1")));
  let slot = Bft_util.Keyhash.slot_of_key ~slots "m1" in
  (match exec svc (Kv.Snapshot_slot { slot; slots }) with
  | Kv.Bindings [ ("m1", "v1") ], _ -> ()
  | _ -> Alcotest.fail "snapshot returns the slot's bindings");
  (* A locked key in the slot makes the donor refuse the snapshot. *)
  let _, unlock =
    exec svc
      (Kv.Prepare
         {
           txn = "mig";
           decision = 0;
           participants = [ 0 ];
           ops = [ Kv.Put ("m1", "v2") ];
         })
  in
  (match exec svc (Kv.Snapshot_slot { slot; slots }) with
  | Kv.Error "locked", _ -> ()
  | _ -> Alcotest.fail "snapshot must refuse a locked slot");
  unlock ();
  (* Install at a new owner, then retire the donor's copy. *)
  let taker = Kv.service () in
  (match
     exec taker (Kv.Install { slot; slots; bindings = [ ("m1", "v1") ] })
   with
  | Kv.Stored, _ -> ()
  | _ -> Alcotest.fail "install");
  (match exec taker (Kv.Get "m1") with
  | Kv.Value (Some "v1"), _ -> ()
  | _ -> Alcotest.fail "installed binding readable");
  (match exec svc (Kv.Drop_slot { slot; slots }) with
  | Kv.Stored, _ -> ()
  | _ -> Alcotest.fail "drop");
  match exec svc (Kv.Get "m1") with
  | Kv.Value None, _ -> ()
  | _ -> Alcotest.fail "donor copy retired"

let kv_roundtrip_prop =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> Kv.Get k) (string_size (int_bound 20));
          map2 (fun k v -> Kv.Put (k, v)) (string_size (int_bound 20))
            (string_size (int_bound 50));
          map (fun k -> Kv.Delete k) (string_size (int_bound 20));
          map3
            (fun key e u -> Kv.Cas { key; expected = e; update = u })
            (string_size (int_bound 20))
            (option (string_size (int_bound 20)))
            (string_size (int_bound 20));
        ])
  in
  QCheck.Test.make ~name:"kv op payloads roundtrip" ~count:200 (QCheck.make op_gen)
    (fun op ->
      let p = Kv.op_payload op in
      (* decoding through the service must not fail *)
      let svc = Kv.service () in
      match Kv.result_of_payload (fst (svc.Bft_core.Service.execute ~client:0 ~op:p)) with
      | Kv.Error _ -> false
      | _ -> true)

let kv_txn_codec_prop =
  (* Exact structural round-trip over the full operation space, including
     the transaction and migration variants with their nested write
     lists. *)
  let short = QCheck.Gen.(string_size (int_bound 12)) in
  let write_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> Kv.Put (k, v)) short short;
          map (fun k -> Kv.Delete k) short;
          map3
            (fun key e u -> Kv.Cas { key; expected = e; update = u })
            short (option short) short;
        ])
  in
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> Kv.Get k) short;
          write_gen;
          map3
            (fun txn (decision, participants) ops ->
              Kv.Prepare { txn; decision; participants; ops })
            short
            (pair (int_bound 7) (list_size (int_bound 4) (int_bound 7)))
            (list_size (int_bound 4) write_gen);
          map (fun t -> Kv.Commit t) short;
          map (fun t -> Kv.Abort t) short;
          map (fun t -> Kv.Txn_status t) short;
          map
            (fun slot -> Kv.Snapshot_slot { slot; slots = 64 })
            (int_bound 63);
          map2
            (fun slot bindings -> Kv.Install { slot; slots = 64; bindings })
            (int_bound 63)
            (list_size (int_bound 4) (pair short short));
          map (fun slot -> Kv.Drop_slot { slot; slots = 64 }) (int_bound 63);
        ])
  in
  QCheck.Test.make ~name:"kv txn/migration ops roundtrip exactly" ~count:300
    (QCheck.make op_gen) (fun op ->
      Kv.op_of_payload (Kv.op_payload op) = Some op)

(* --- checkpoint capture and digest ------------------------------------- *)

module Enc = Bft_util.Codec.Enc

(* Every key the property below touches, in [String.compare] order. *)
let capture_keys = [ "a"; "ab"; "b"; "c"; "d"; "e" ]

(* What the test knows that the audit hooks do not show: the decided log
   (newest first) and the record each prepared transaction carries. *)
type shadow = {
  decided : string list;
  records : (string * (int * int list * Kv.op list)) list;
}

(* The snapshot encoding as the store produced it before its bindings moved
   to a persistent map: bindings sorted by key, with the transaction
   sections behind a marker once the transaction layer has been used. *)
let reference_encoding store shadow =
  let bindings =
    List.filter_map
      (fun k -> Option.map (fun v -> (k, v)) (Kv.store_find store k))
      capture_keys
  in
  let locks = Kv.store_locks store in
  let prepared = Kv.store_prepared_txns store in
  let enc = Enc.create () in
  let pair (a, b) =
    Enc.bytes enc a;
    Enc.bytes enc b
  in
  if locks = [] && prepared = [] && shadow.decided = [] then List.iter pair bindings
  else begin
    Enc.u32 enc 0xFFFFFFFF;
    Enc.list enc (fun _ -> pair) bindings;
    Enc.list enc (fun _ -> pair) locks;
    Enc.list enc
      (fun enc txn ->
        let decision, participants, ops = List.assoc txn shadow.records in
        Enc.bytes enc txn;
        Enc.u16 enc decision;
        Enc.list enc Enc.u16 participants;
        Enc.list enc (fun enc op -> Enc.raw enc (Kv.op_payload op).Payload.data) ops)
      prepared;
    Enc.list enc
      (fun enc txn ->
        Enc.bytes enc txn;
        Enc.bool enc (Option.get (Kv.store_decision store txn)))
      shadow.decided
  end;
  Enc.to_string enc

type capture_step = Exec of Kv.op | Undo | Capture

let capture_steps_gen =
  let open QCheck.Gen in
  let key = oneofl capture_keys in
  let value = string_size ~gen:(oneofl [ 'x'; 'y'; 'z' ]) (int_bound 3) in
  let txn = map (Printf.sprintf "t%d") (int_bound 3) in
  let write =
    oneof
      [
        map2 (fun k v -> Kv.Put (k, v)) key value;
        map (fun k -> Kv.Delete k) key;
        map3 (fun key expected update -> Kv.Cas { key; expected; update }) key
          (option value) value;
      ]
  in
  let slots = 4 in
  let op =
    frequency
      [
        (4, write);
        ( 2,
          map3
            (fun txn decision ops ->
              Kv.Prepare { txn; decision; participants = [ 0; 1 ]; ops })
            txn (int_bound 1)
            (list_size (int_range 1 3) write) );
        (1, map (fun t -> Kv.Commit t) txn);
        (1, map (fun t -> Kv.Abort t) txn);
        ( 1,
          map2
            (fun slot v ->
              let bindings =
                List.filter_map
                  (fun k ->
                    if Bft_util.Keyhash.slot_of_key ~slots k = slot then Some (k, v ^ k)
                    else None)
                  capture_keys
              in
              Kv.Install { slot; slots; bindings })
            (int_bound (slots - 1)) value );
        (1, map (fun slot -> Kv.Drop_slot { slot; slots }) (int_bound (slots - 1)));
      ]
  in
  list_size (int_bound 40)
    (frequency [ (6, map (fun o -> Exec o) op); (2, return Undo); (1, return Capture) ])

let show_capture_step = function
  | Exec op -> Printf.sprintf "exec %S" (Kv.op_payload op).Payload.data
  | Undo -> "undo"
  | Capture -> "capture"

let capture_steps =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show_capture_step l))
    capture_steps_gen

(* Run the steps, keeping the shadow in step with the store: a fresh
   decision joins the decided log, a prepare that took effect registers its
   record, and an undo (always of the newest live step) puts both back. *)
let run_capture_steps steps =
  let store = Kv.create_store () in
  let svc = Kv.service_of_store store in
  let shadow = ref { decided = []; records = [] } in
  let undos = ref [] in
  let captures = ref [] in
  List.iter
    (function
      | Exec op ->
        let before = !shadow in
        let fresh =
          match op with
          | Kv.Commit t | Kv.Abort t when Kv.store_decision store t = None -> Some t
          | _ -> None
        in
        let prepared_before = Kv.store_prepared_txns store in
        let _, undo = svc.Service.execute ~client:0 ~op:(Kv.op_payload op) in
        (match fresh with
        | Some t when Kv.store_decision store t <> None ->
          shadow := { !shadow with decided = t :: !shadow.decided }
        | _ -> ());
        (match op with
        | Kv.Prepare { txn; decision; participants; ops }
          when (not (List.mem txn prepared_before))
               && List.mem txn (Kv.store_prepared_txns store) ->
          shadow :=
            { !shadow with records = (txn, (decision, participants, ops)) :: !shadow.records }
        | _ -> ());
        undos := (undo, before) :: !undos
      | Undo -> (
        match !undos with
        | (undo, before) :: rest ->
          undo ();
          shadow := before;
          undos := rest
        | [] -> ())
      | Capture ->
        captures := (svc.Service.capture (), reference_encoding store !shadow) :: !captures)
    steps;
  (store, svc, !shadow, !captures)

let kv_capture_prop =
  QCheck.Test.make ~name:"capture bytes, length, copy-on-write" ~count:300
    capture_steps (fun steps ->
      let store, svc, shadow, captures = run_capture_steps steps in
      let now = svc.Service.capture () in
      let forced = Lazy.force now.Service.payload in
      forced.Payload.data = reference_encoding store shadow
      && now.Service.length + now.Service.pad = Payload.size forced
      && Payload.equal forced (svc.Service.snapshot ())
      (* forced after every later step: still the bytes as of the capture *)
      && List.for_all
           (fun (c, expected) ->
             let p = Lazy.force c.Service.payload in
             p.Payload.data = expected && c.Service.length + c.Service.pad = Payload.size p)
           captures)

let kv_digest_prop =
  QCheck.Test.make ~name:"digest independent of history" ~count:300
    capture_steps (fun steps ->
      let store, svc, _, _ = run_capture_steps steps in
      let digest = svc.Service.state_digest () in
      let snap = svc.Service.snapshot () in
      (* restore: the same state, rebuilt from its bytes *)
      let restored_store = Kv.create_store () in
      let restored = Kv.service_of_store restored_store in
      restored.Service.restore snap;
      (* another history: every unlocked key scribbled over, then set back *)
      let other = Kv.service_of_store (Kv.create_store ()) in
      other.Service.restore snap;
      let run svc op = ignore (svc.Service.execute ~client:0 ~op:(Kv.op_payload op)) in
      List.iter (fun k -> run other (Kv.Put (k, "scribble"))) (List.rev capture_keys);
      List.iter
        (fun k ->
          match Kv.store_find store k with
          | Some v -> run other (Kv.Put (k, v))
          | None -> run other (Kv.Delete k))
        capture_keys;
      (* one value byte changed: a different digest, and undo brings it back *)
      let locked = List.map fst (Kv.store_locks store) in
      let flipped =
        List.find_map
          (fun k ->
            match Kv.store_find store k with
            | Some v when v <> "" && not (List.mem k locked) ->
              let b = Bytes.of_string v in
              Bytes.set b 0 (Char.chr ((Char.code v.[0] + 1) land 0xFF));
              let _, undo =
                svc.Service.execute ~client:0
                  ~op:(Kv.op_payload (Kv.Put (k, Bytes.to_string b)))
              in
              let changed = svc.Service.state_digest () in
              undo ();
              Some ((not (Fingerprint.equal changed digest))
                    && Fingerprint.equal digest (svc.Service.state_digest ()))
            | _ -> None)
          capture_keys
      in
      Fingerprint.equal digest (restored.Service.state_digest ())
      && Payload.equal snap (restored.Service.snapshot ())
      && Kv.size restored_store = Kv.size store
      && Fingerprint.equal digest (other.Service.state_digest ())
      && Payload.equal snap (other.Service.snapshot ())
      && Option.value flipped ~default:true)

let test_counter_semantics () =
  let svc = Counter.service () in
  let run op =
    let r, _ = svc.Service.execute ~client:1 ~op:(Counter.op_payload op) in
    Counter.value_of_payload r
  in
  check (Alcotest.option Alcotest.int) "read 0" (Some 0) (run (Counter.Read "c"));
  check (Alcotest.option Alcotest.int) "add" (Some 5) (run (Counter.Add ("c", 5)));
  check (Alcotest.option Alcotest.int) "add more" (Some 3) (run (Counter.Add ("c", -2)));
  check (Alcotest.option Alcotest.int) "read" (Some 3) (run (Counter.Read "c"))

let test_counter_undo_and_snapshot () =
  let svc = Counter.service () in
  let exec op = svc.Service.execute ~client:1 ~op:(Counter.op_payload op) in
  ignore (exec (Counter.Add ("c", 10)));
  let d = svc.Service.state_digest () in
  let _, undo = exec (Counter.Add ("c", 5)) in
  undo ();
  check Alcotest.bool "undo" true (Fingerprint.equal d (svc.Service.state_digest ()));
  let snap = svc.Service.snapshot () in
  let svc2 = Counter.service () in
  svc2.Service.restore snap;
  check Alcotest.bool "restore" true
    (Fingerprint.equal d (svc2.Service.state_digest ()))

let test_null_service_result_sizes () =
  let svc = Service.null () in
  let result, _ =
    svc.Service.execute ~client:1
      ~op:(Service.null_op ~read_only:false ~arg_size:100 ~result_size:4096)
  in
  check Alcotest.int "result size" 4096 (Payload.size result);
  check Alcotest.bool "ro detection" true
    (svc.Service.is_read_only (Service.null_op ~read_only:true ~arg_size:0 ~result_size:0));
  check Alcotest.bool "rw detection" false
    (svc.Service.is_read_only (Service.null_op ~read_only:false ~arg_size:0 ~result_size:0))

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "services"
    [
      ( "kv",
        [
          Alcotest.test_case "semantics" `Quick test_kv_semantics;
          Alcotest.test_case "cas on absent" `Quick test_kv_cas_on_absent;
          Alcotest.test_case "undo" `Quick test_kv_undo;
          Alcotest.test_case "snapshot/restore" `Quick test_kv_snapshot_restore;
          Alcotest.test_case "read-only classification" `Quick test_kv_read_only;
          Alcotest.test_case "undecodable op" `Quick test_kv_undecodable_op;
          Alcotest.test_case "dirty tracking" `Quick test_kv_dirty_tracking;
          Alcotest.test_case "delete of missing key is clean" `Quick
            test_kv_delete_missing_not_dirty;
          Alcotest.test_case "codec rejects trailing bytes" `Quick
            test_kv_codec_strictness;
          q kv_roundtrip_prop;
          q kv_txn_codec_prop;
        ] );
      ( "kv-txn",
        [
          Alcotest.test_case "prepare/commit/abort semantics" `Quick
            test_kv_txn_semantics;
          Alcotest.test_case "prepare undo is byte-identical" `Quick
            test_kv_prepare_undo_byte_identical;
          Alcotest.test_case "txn state snapshot/restore" `Quick
            test_kv_txn_snapshot_restore;
          Alcotest.test_case "migration ops" `Quick test_kv_migration_ops;
          q kv_capture_prop;
          q kv_digest_prop;
        ] );
      ( "counter",
        [
          Alcotest.test_case "semantics" `Quick test_counter_semantics;
          Alcotest.test_case "undo and snapshot" `Quick
            test_counter_undo_and_snapshot;
        ] );
      ( "null",
        [ Alcotest.test_case "result sizes" `Quick test_null_service_result_sizes ] );
    ]
