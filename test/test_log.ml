(* Tests for the replica log: watermarks, certificates, truncation. *)

module Log = Bft_core.Log
module Message = Bft_core.Message
module Fingerprint = Bft_crypto.Fingerprint

let check = Alcotest.check

let d1 = Fingerprint.of_string "one"

let d2 = Fingerprint.of_string "two"

let fresh_slot ?(seq = 1) ?(view = 0) ?(digest = d1) log =
  let slot = Log.get log seq in
  slot.Log.pre_prepare <- Some (view, [ Message.Null_entry ]);
  slot.Log.pp_digest <- Some digest;
  slot

let test_watermarks () =
  let log = Log.create ~low:0 ~window:16 ~replicas:4 () in
  check Alcotest.int "low" 0 (Log.low_watermark log);
  check Alcotest.int "high" 16 (Log.high_watermark log);
  check Alcotest.bool "0 out" false (Log.in_window log 0);
  check Alcotest.bool "1 in" true (Log.in_window log 1);
  check Alcotest.bool "16 in" true (Log.in_window log 16);
  check Alcotest.bool "17 out" false (Log.in_window log 17)

let test_get_out_of_window () =
  let log = Log.create ~low:10 ~window:4 ~replicas:4 () in
  Alcotest.check_raises "below" (Invalid_argument "Log.get: seq 10 outside (10, 14]")
    (fun () -> ignore (Log.get log 10));
  Alcotest.check_raises "above" (Invalid_argument "Log.get: seq 15 outside (10, 14]")
    (fun () -> ignore (Log.get log 15))

let test_find_vs_get () =
  let log = Log.create ~low:0 ~window:8 ~replicas:4 () in
  check Alcotest.bool "absent" true (Log.find log 3 = None);
  let slot = Log.get log 3 in
  check Alcotest.bool "same slot" true (Log.find log 3 = Some slot)

let test_prepared_predicate () =
  let log = Log.create ~low:0 ~window:8 ~replicas:4 () in
  let slot = fresh_slot log in
  check Alcotest.bool "not yet" false (Log.is_prepared slot ~f:1 0);
  Log.add_prepare slot 1 0 d1;
  check Alcotest.bool "one prepare" false (Log.is_prepared slot ~f:1 0);
  Log.add_prepare slot 2 0 d1;
  check Alcotest.bool "2f prepares" true (Log.is_prepared slot ~f:1 0);
  check Alcotest.bool "wrong view" false (Log.is_prepared slot ~f:1 1)

let test_prepared_needs_matching_digest () =
  let log = Log.create ~low:0 ~window:8 ~replicas:4 () in
  let slot = fresh_slot log in
  Log.add_prepare slot 1 0 d2;
  Log.add_prepare slot 2 0 d2;
  check Alcotest.bool "mismatched digests don't count" false
    (Log.is_prepared slot ~f:1 0)

let test_prepared_counts_distinct_replicas () =
  let log = Log.create ~low:0 ~window:8 ~replicas:4 () in
  let slot = fresh_slot log in
  Log.add_prepare slot 1 0 d1;
  Log.add_prepare slot 1 0 d1;
  check Alcotest.bool "duplicate replica counted once" false
    (Log.is_prepared slot ~f:1 0)

let test_prepared_blocked_by_missing_bodies () =
  let log = Log.create ~low:0 ~window:8 ~replicas:4 () in
  let slot = fresh_slot log in
  Log.set_missing log slot [ d2 ];
  Log.add_prepare slot 1 0 d1;
  Log.add_prepare slot 2 0 d1;
  check Alcotest.bool "missing body blocks" false (Log.is_prepared slot ~f:1 0);
  Log.set_missing log slot [];
  check Alcotest.bool "unblocked" true (Log.is_prepared slot ~f:1 0)

let test_committed_predicate () =
  let log = Log.create ~low:0 ~window:8 ~replicas:4 () in
  let slot = fresh_slot log in
  Log.add_prepare slot 1 0 d1;
  Log.add_prepare slot 2 0 d1;
  Log.add_commit slot 0 0 d1;
  Log.add_commit slot 1 0 d1;
  check Alcotest.bool "2 commits" false (Log.is_committed slot ~f:1 0);
  Log.add_commit slot 2 0 d1;
  check Alcotest.bool "2f+1 commits" true (Log.is_committed slot ~f:1 0)

let test_committed_without_local_prepares () =
  (* A commit certificate alone suffices (it proves a quorum prepared),
     but only with the batch body present. *)
  let log = Log.create ~low:0 ~window:8 ~replicas:4 () in
  let slot = fresh_slot log in
  Log.add_commit slot 0 0 d1;
  Log.add_commit slot 1 0 d1;
  Log.add_commit slot 2 0 d1;
  check Alcotest.bool "commit cert suffices" true (Log.is_committed slot ~f:1 0);
  Log.set_missing log slot [ d2 ];
  check Alcotest.bool "missing body blocks" false (Log.is_committed slot ~f:1 0);
  (* without the pre-prepare there is nothing to execute *)
  let bare = Log.get log 2 in
  Log.add_commit bare 0 0 d1;
  Log.add_commit bare 1 0 d1;
  Log.add_commit bare 2 0 d1;
  check Alcotest.bool "no pre-prepare" false (Log.is_committed bare ~f:1 0)

let test_later_view_wins () =
  let log = Log.create ~low:0 ~window:8 ~replicas:4 () in
  let slot = fresh_slot log in
  Log.add_prepare slot 1 1 d2;
  (* an older-view prepare must not overwrite the newer one *)
  Log.add_prepare slot 1 0 d1;
  check Alcotest.int "old view not counted" 0 (Log.prepare_count slot 0 d1);
  check Alcotest.int "new view kept" 1 (Log.prepare_count slot 1 d2)

let test_truncate () =
  let log = Log.create ~low:0 ~window:8 ~replicas:4 () in
  for seq = 1 to 8 do
    ignore (Log.get log seq)
  done;
  Log.truncate log ~new_low:4;
  check Alcotest.int "low moved" 4 (Log.low_watermark log);
  check Alcotest.bool "old slot gone" true (Log.find log 3 = None);
  check Alcotest.bool "kept" true (Log.find log 5 <> None);
  check Alcotest.bool "window extends" true (Log.in_window log 12);
  (* truncating backwards is a no-op *)
  Log.truncate log ~new_low:2;
  check Alcotest.int "no backward move" 4 (Log.low_watermark log)

let test_iter_sorted () =
  let log = Log.create ~low:0 ~window:16 ~replicas:4 () in
  List.iter (fun s -> ignore (Log.get log s)) [ 9; 2; 5 ];
  let seen = ref [] in
  Log.iter log (fun slot -> seen := slot.Log.seq :: !seen);
  check (Alcotest.list Alcotest.int) "ascending" [ 2; 5; 9 ] (List.rev !seen)

let test_f2_quorums () =
  let log = Log.create ~low:0 ~window:8 ~replicas:7 () in
  let slot = fresh_slot log in
  for r = 1 to 3 do
    Log.add_prepare slot r 0 d1
  done;
  check Alcotest.bool "3 prepares not enough at f=2" false
    (Log.is_prepared slot ~f:2 0);
  Log.add_prepare slot 4 0 d1;
  check Alcotest.bool "4 prepares enough at f=2" true (Log.is_prepared slot ~f:2 0)

let () =
  Alcotest.run "log"
    [
      ( "log",
        [
          Alcotest.test_case "watermarks" `Quick test_watermarks;
          Alcotest.test_case "get out of window" `Quick test_get_out_of_window;
          Alcotest.test_case "find vs get" `Quick test_find_vs_get;
          Alcotest.test_case "prepared predicate" `Quick test_prepared_predicate;
          Alcotest.test_case "prepared digest match" `Quick
            test_prepared_needs_matching_digest;
          Alcotest.test_case "distinct replicas" `Quick
            test_prepared_counts_distinct_replicas;
          Alcotest.test_case "missing bodies block" `Quick
            test_prepared_blocked_by_missing_bodies;
          Alcotest.test_case "committed predicate" `Quick test_committed_predicate;
          Alcotest.test_case "committed without local prepares" `Quick
            test_committed_without_local_prepares;
          Alcotest.test_case "later view wins" `Quick test_later_view_wins;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "iter sorted" `Quick test_iter_sorted;
          Alcotest.test_case "f=2 quorums" `Quick test_f2_quorums;
        ] );
    ]
