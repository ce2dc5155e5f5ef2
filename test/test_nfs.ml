(* Tests for the NFS protocol codec, the NFS service (BFS's state machine)
   and the NFS-STD model. *)

module Fs = Bft_nfs.Fs
module Proto = Bft_nfs.Proto
module Nfs_service = Bft_nfs.Nfs_service
module Nfs_std = Bft_nfs.Nfs_std
module Payload = Bft_core.Payload
module Service = Bft_core.Service
module Fingerprint = Bft_crypto.Fingerprint

let check = Alcotest.check

let all_calls =
  [
    Proto.Getattr 1;
    Proto.Setattr { fh = 2; size = Some 100; mode = None };
    Proto.Setattr { fh = 2; size = None; mode = Some 0o600 };
    Proto.Lookup { dir = 1; name = "file.txt" };
    Proto.Readlink 3;
    Proto.Read { fh = 2; off = 512; len = 3072 };
    Proto.Write { fh = 2; off = 0; data = Payload.of_string "data" };
    Proto.Write { fh = 2; off = 4096; data = Payload.zeros 3072 };
    Proto.Create { dir = 1; name = "new"; mode = 0o644 };
    Proto.Remove { dir = 1; name = "old" };
    Proto.Rename { from_dir = 1; from_name = "a"; to_dir = 4; to_name = "b" };
    Proto.Link { src = 2; dir = 1; name = "hard" };
    Proto.Symlink { dir = 1; name = "soft"; target = "/elsewhere" };
    Proto.Mkdir { dir = 1; name = "sub"; mode = 0o755 };
    Proto.Rmdir { dir = 1; name = "sub" };
    Proto.Readdir 1;
    Proto.Statfs;
  ]

let test_call_roundtrips () =
  List.iter
    (fun call ->
      match Proto.decode_call (Proto.encode_call call) with
      | Some call' ->
        check Alcotest.string (Proto.call_name call) (Proto.call_name call)
          (Proto.call_name call');
        (* re-encoding must be stable *)
        check Alcotest.bool "stable encoding" true
          (Proto.encode_call call = Proto.encode_call call')
      | None -> Alcotest.failf "%s failed to decode" (Proto.call_name call))
    all_calls

let test_write_padding_preserved () =
  let call = Proto.Write { fh = 9; off = 0; data = Payload.zeros 4096 } in
  let payload = Proto.encode_call call in
  check Alcotest.int "padding carried" 4096 payload.Payload.pad;
  match Proto.decode_call payload with
  | Some (Proto.Write { data; _ }) ->
    check Alcotest.int "modeled size preserved" 4096 (Payload.size data)
  | _ -> Alcotest.fail "decode failed"

let test_reply_roundtrips () =
  let attr =
    { Fs.ftype = Fs.Reg; mode = 0o644; nlink = 1; size = 42; mtime = 7; ctime = 8 }
  in
  let replies =
    [
      Proto.Attr attr;
      Proto.Entry (5, attr);
      Proto.Data (Payload.of_string "bytes");
      Proto.Data (Payload.zeros 3000);
      Proto.Path "/target";
      Proto.Created (6, attr);
      Proto.Names [ "a"; "b" ];
      Proto.Fsinfo (1000, 5);
      Proto.Ok_unit;
      Proto.Err Fs.ENOENT;
      Proto.Err Fs.ENOTEMPTY;
    ]
  in
  List.iter
    (fun reply ->
      match Proto.decode_reply (Proto.encode_reply reply) with
      | Some reply' ->
        check Alcotest.bool "stable" true
          (Proto.encode_reply reply = Proto.encode_reply reply')
      | None -> Alcotest.fail "reply decode failed")
    replies

let test_read_only_classification () =
  check Alcotest.bool "read" true (Proto.is_read_only (Proto.Read { fh = 1; off = 0; len = 1 }));
  check Alcotest.bool "getattr" true (Proto.is_read_only (Proto.Getattr 1));
  check Alcotest.bool "statfs" true (Proto.is_read_only Proto.Statfs);
  check Alcotest.bool "write" false
    (Proto.is_read_only (Proto.Write { fh = 1; off = 0; data = Payload.empty }));
  check Alcotest.bool "create" false
    (Proto.is_read_only (Proto.Create { dir = 1; name = "x"; mode = 0 }));
  check Alcotest.bool "rename meta" true
    (Proto.is_metadata_mutation
       (Proto.Rename { from_dir = 1; from_name = "a"; to_dir = 1; to_name = "b" }));
  check Alcotest.bool "write not meta" false
    (Proto.is_metadata_mutation (Proto.Write { fh = 1; off = 0; data = Payload.empty }))

let exec svc call =
  let result, _undo =
    svc.Service.execute ~client:100 ~op:(Proto.encode_call call)
  in
  match Proto.decode_reply result with
  | Some reply -> reply
  | None -> Alcotest.fail "undecodable service reply"

let test_service_end_to_end () =
  let svc = Nfs_service.create (Fs.create ()) in
  let dir =
    match exec svc (Proto.Mkdir { dir = Fs.root; name = "d"; mode = 0o755 }) with
    | Proto.Created (fh, _) -> fh
    | _ -> Alcotest.fail "mkdir failed"
  in
  let file =
    match exec svc (Proto.Create { dir; name = "f"; mode = 0o644 }) with
    | Proto.Created (fh, _) -> fh
    | _ -> Alcotest.fail "create failed"
  in
  (match exec svc (Proto.Write { fh = file; off = 0; data = Payload.of_string "abc" }) with
  | Proto.Attr a -> check Alcotest.int "size" 3 a.Fs.size
  | _ -> Alcotest.fail "write failed");
  (match exec svc (Proto.Read { fh = file; off = 0; len = 10 }) with
  | Proto.Data d -> check Alcotest.string "read back" "abc" d.Payload.data
  | _ -> Alcotest.fail "read failed");
  match exec svc (Proto.Lookup { dir; name = "missing" }) with
  | Proto.Err Fs.ENOENT -> ()
  | _ -> Alcotest.fail "expected ENOENT"

let test_service_undo () =
  let svc = Nfs_service.create (Fs.create ()) in
  let d0 = svc.Service.state_digest () in
  let _, undo =
    svc.Service.execute ~client:100
      ~op:(Proto.encode_call (Proto.Create { dir = Fs.root; name = "f"; mode = 0o644 }))
  in
  check Alcotest.bool "changed" false
    (Fingerprint.equal d0 (svc.Service.state_digest ()));
  undo ();
  check Alcotest.bool "restored" true
    (Fingerprint.equal d0 (svc.Service.state_digest ()))

let test_service_snapshot_restore () =
  let svc = Nfs_service.create (Fs.create ()) in
  ignore (exec svc (Proto.Create { dir = Fs.root; name = "f"; mode = 0o644 }));
  let snap = svc.Service.snapshot () in
  let digest = svc.Service.state_digest () in
  let svc2 = Nfs_service.create (Fs.create ()) in
  svc2.Service.restore snap;
  check Alcotest.bool "same state" true
    (Fingerprint.equal digest (svc2.Service.state_digest ()))

let test_service_read_only_flag () =
  let svc = Nfs_service.create (Fs.create ()) in
  check Alcotest.bool "read is ro" true
    (svc.Service.is_read_only
       (Proto.encode_call (Proto.Read { fh = 1; off = 0; len = 1 })));
  check Alcotest.bool "write is rw" false
    (svc.Service.is_read_only
       (Proto.encode_call (Proto.Write { fh = 1; off = 0; data = Payload.empty })));
  check Alcotest.bool "garbage is rw" false
    (svc.Service.is_read_only (Payload.of_string "\xff\xff"))

let test_service_dirty_accounting () =
  let svc = Nfs_service.create (Fs.create ()) in
  check Alcotest.int "clean" 0 (svc.Service.modified_since_checkpoint ());
  ignore (exec svc (Proto.Create { dir = Fs.root; name = "f"; mode = 0o644 }));
  check Alcotest.bool "metadata dirt" true (svc.Service.modified_since_checkpoint () > 0);
  svc.Service.checkpoint_taken ();
  check Alcotest.int "reset" 0 (svc.Service.modified_since_checkpoint ())

let test_miss_cost_model () =
  let params =
    { Nfs_service.default_params with Nfs_service.mem_bytes = 1000 }
  in
  let fs = Fs.create () in
  check (Alcotest.float 1e-12) "fits: no cost" 0.0 (Nfs_service.miss_cost params fs 500);
  (match Fs.create_file fs ~dir:Fs.root ~name:"f" ~mode:0o644 with
  | Ok (fh, _, _) ->
    ignore (Fs.write fs fh ~off:0 ~data:(Payload.zeros 10_000))
  | Error _ -> Alcotest.fail "create");
  check Alcotest.bool "over: positive cost" true
    (Nfs_service.miss_cost params fs 3000 > 0.0)

let test_nfs_std_metadata_disk () =
  (* Drive the NFS-STD server directly through a Norep client and confirm
     metadata mutations consume disk time while reads do not. *)
  let open Bft_sim in
  let engine = Engine.create () in
  let net = Bft_net.Network.create engine Calibration.default ~rng:(Bft_util.Rng.of_int 3) in
  let scpu = Cpu.create engine ~name:"nfsd" () in
  let snode = Bft_net.Network.add_node net ~cpu:scpu ~name:"nfsd" () in
  let server = Nfs_std.create ~network:net ~node:snode () in
  let ccpu = Cpu.create engine ~name:"client" () in
  let cnode = Bft_net.Network.add_node net ~cpu:ccpu ~name:"client" () in
  let client =
    Bft_core.Norep.Client.create ~network:net ~node:cnode
      ~dispatcher:(Bft_core.Dispatcher.install net cnode) ~id:100 ~server:snode
      ~retry_timeout:1.0 ()
  in
  let results = ref [] in
  let call c k =
    Bft_core.Norep.Client.invoke client (Proto.encode_call c) (fun o ->
        results := o.Bft_core.Norep.Client.result :: !results;
        k ())
  in
  call (Proto.Create { dir = Fs.root; name = "f"; mode = 0o644 }) (fun () ->
      call (Proto.Getattr Fs.root) (fun () -> ()));
  Engine.run ~until:5.0 engine;
  check Alcotest.int "both calls answered" 2 (List.length !results);
  check Alcotest.bool "disk consumed by create" true (Nfs_std.disk_busy server > 0.0);
  check Alcotest.int "one sync op" 1
    (Bft_core.Metrics.count (Nfs_std.metrics server) "disk.sync_ops")

let () =
  let _ = test_miss_cost_model in
  Alcotest.run "nfs"
    [
      ( "proto",
        [
          Alcotest.test_case "call roundtrips" `Quick test_call_roundtrips;
          Alcotest.test_case "write padding" `Quick test_write_padding_preserved;
          Alcotest.test_case "reply roundtrips" `Quick test_reply_roundtrips;
          Alcotest.test_case "read-only classification" `Quick
            test_read_only_classification;
        ] );
      ( "service",
        [
          Alcotest.test_case "end to end" `Quick test_service_end_to_end;
          Alcotest.test_case "undo" `Quick test_service_undo;
          Alcotest.test_case "snapshot/restore" `Quick test_service_snapshot_restore;
          Alcotest.test_case "read-only flag" `Quick test_service_read_only_flag;
          Alcotest.test_case "dirty accounting" `Quick test_service_dirty_accounting;
          Alcotest.test_case "miss cost model" `Quick test_miss_cost_model;
        ] );
      ( "nfs-std",
        [ Alcotest.test_case "metadata disk" `Quick test_nfs_std_metadata_disk ] );
    ]
