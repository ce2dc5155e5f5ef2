(* BFS in miniature: a Byzantine-fault-tolerant NFS file system.

   Drives the replicated NFS state machine through the BFT library with
   real file contents: mkdir, create, write, read back, rename, readdir —
   then verifies the bytes survived the round trip and that all replicas'
   file systems agree (identical state digests).

   Run with: dune exec examples/bfs_demo.exe *)

open Bft_core
module Proto = Bft_nfs.Proto
module Fs = Bft_nfs.Fs
module Nfs_service = Bft_nfs.Nfs_service

let () =
  let config = Config.make ~f:1 () in
  let services =
    Array.init config.Config.n (fun _ -> Nfs_service.create (Fs.create ()))
  in
  let cluster = Cluster.create ~config ~service:(fun i -> services.(i)) () in
  let client = Cluster.add_client cluster in

  let nfs call k =
    Client.invoke client
      ~read_only:(Proto.is_read_only call)
      (Proto.encode_call call)
      (fun outcome ->
        match Proto.decode_reply outcome.Client.result with
        | Some reply -> k reply
        | None -> failwith "undecodable NFS reply")
  in
  let fh_of label = function
    | Proto.Created (fh, _) -> fh
    | Proto.Err e -> failwith (label ^ ": " ^ Fs.error_name e)
    | _ -> failwith (label ^ ": unexpected reply")
  in

  let poem = "the generals agreed,\nthough a third of them lied.\n" in
  nfs (Proto.Mkdir { dir = Fs.root; name = "letters"; mode = 0o755 }) (fun r ->
      let dir = fh_of "mkdir" r in
      nfs (Proto.Create { dir; name = "draft.txt"; mode = 0o644 }) (fun r ->
          let file = fh_of "create" r in
          nfs (Proto.Write { fh = file; off = 0; data = Payload.of_string poem })
            (fun _ ->
              nfs (Proto.Read { fh = file; off = 0; len = 4096 }) (fun r ->
                  (match r with
                  | Proto.Data payload ->
                    Printf.printf "read back %d bytes:\n%s" (Payload.size payload)
                      payload.Payload.data;
                    assert (payload.Payload.data = poem)
                  | _ -> failwith "read failed");
                  nfs
                    (Proto.Rename
                       {
                         from_dir = dir;
                         from_name = "draft.txt";
                         to_dir = dir;
                         to_name = "final.txt";
                       })
                    (fun _ ->
                      nfs (Proto.Readdir dir) (fun r ->
                          (match r with
                          | Proto.Names names ->
                            Printf.printf "letters/ contains: %s\n"
                              (String.concat ", " names)
                          | _ -> failwith "readdir failed");
                          print_endline "bfs_demo: file survived the round trip"))))));
  Cluster.run ~until:5.0 cluster;

  (* All four replicas hold byte-identical file systems. *)
  let digests =
    Array.to_list services
    |> List.map (fun s -> s.Service.state_digest ())
    |> List.map (fun d -> String.sub (Bft_crypto.Md5.to_hex d) 0 12)
  in
  Printf.printf "replica fs digests: %s\n" (String.concat " " digests);
  match digests with
  | d :: rest ->
    assert (List.for_all (String.equal d) rest);
    print_endline "all replicas agree"
  | [] -> ()
