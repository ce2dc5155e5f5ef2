module Proto = Bft_nfs.Proto
module Fs = Bft_nfs.Fs
module Payload = Bft_core.Payload
module Rng = Bft_util.Rng

type profile = {
  initial_files : int;
  transactions : int;
  min_size : int;
  max_size : int;
  write_buffer : int;
  compute_per_txn : float;
}

let default =
  {
    initial_files = 1000;
    transactions = 5000;
    min_size = 512;
    max_size = 16384;
    write_buffer = 3072;
    compute_per_txn = 0.03e-3;
  }

let scaled ~files ~transactions = { default with initial_files = files; transactions }

type gen = { fs : Fs.t; mutable steps : Nfs_rig.step list }

let emit g s = g.steps <- s :: g.steps

let call g c = emit g (Nfs_rig.Call c)

let compute g dt = if dt > 0.0 then emit g (Nfs_rig.Compute dt)

let must label = function
  | Ok v -> v
  | Error e ->
    failwith (Printf.sprintf "postmark generator: %s: %s" label (Fs.error_name e))

let write_whole g ~fh ~size ~buffer =
  let off = ref 0 in
  while !off < size do
    let len = Stdlib.min buffer (size - !off) in
    call g (Proto.Write { fh; off = !off; data = Payload.zeros len });
    ignore (must "write" (Fs.write g.fs fh ~off:!off ~data:(Payload.zeros len)));
    off := !off + len
  done

(* Reads in PostMark almost always hit the client's cache (the pool is a
   few MB and the file was just created or read); what reaches the server
   is the attribute revalidation, plus the local scan time. *)
let read_whole g ~fh ~size ~buffer =
  call g (Proto.Getattr fh);
  let chunks = (size + buffer - 1) / buffer in
  compute g (0.02e-3 *. float_of_int chunks)

let generate profile =
  let g = { fs = Fs.create (); steps = [] } in
  let rng = Rng.of_int 11 in
  let size () = profile.min_size + Rng.int rng (profile.max_size - profile.min_size) in
  let next_name = ref 0 in
  (* live pool: array of (name, fh, size) with swap-remove *)
  let pool = ref [||] in
  let pool_len = ref 0 in
  let pool_add entry =
    if !pool_len = Array.length !pool then begin
      let bigger = Array.make (Stdlib.max 16 (2 * !pool_len)) entry in
      Array.blit !pool 0 bigger 0 !pool_len;
      pool := bigger
    end;
    !pool.(!pool_len) <- entry;
    pool_len := !pool_len + 1
  in
  let create_file () =
    let name = Printf.sprintf "pm%d" !next_name in
    incr next_name;
    let sz = size () in
    call g (Proto.Create { dir = Fs.root; name; mode = 0o644 });
    let fh, _, _ = must "create" (Fs.create_file g.fs ~dir:Fs.root ~name ~mode:0o644) in
    write_whole g ~fh ~size:sz ~buffer:profile.write_buffer;
    pool_add (name, fh, sz)
  in
  let delete_file () =
    if !pool_len > 1 then begin
      let i = Rng.int rng !pool_len in
      let name, _, _ = !pool.(i) in
      call g (Proto.Remove { dir = Fs.root; name });
      let (_ : Fs.undo) = must "remove" (Fs.remove g.fs ~dir:Fs.root ~name) in
      pool_len := !pool_len - 1;
      !pool.(i) <- !pool.(!pool_len)
    end
  in
  for _ = 1 to profile.initial_files do
    create_file ()
  done;
  for _ = 1 to profile.transactions do
    compute g profile.compute_per_txn;
    (* transaction half 1: create or delete *)
    if Rng.bool rng then create_file () else delete_file ();
    (* transaction half 2: read or append *)
    if !pool_len > 0 then begin
      let i = Rng.int rng !pool_len in
      let name, fh, sz = !pool.(i) in
      if Rng.bool rng then read_whole g ~fh ~size:sz ~buffer:profile.write_buffer
      else begin
        let extra = 512 + Rng.int rng 1024 in
        call g (Proto.Write { fh; off = sz; data = Payload.zeros extra });
        let (_ : Fs.attr * Fs.undo) =
          must "append" (Fs.write g.fs fh ~off:sz ~data:(Payload.zeros extra))
        in
        !pool.(i) <- (name, fh, sz + extra)
      end
    end
  done;
  (List.rev g.steps, profile.transactions)
