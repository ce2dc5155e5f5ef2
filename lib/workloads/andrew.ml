module Proto = Bft_nfs.Proto
module Fs = Bft_nfs.Fs
module Payload = Bft_core.Payload

type profile = {
  copies : int;
  dirs_per_copy : int;
  files_per_copy : int;
  write_buffer : int;
  client_mem : int;
  compute_scale : float;
}

let andrew ~n =
  {
    copies = n;
    dirs_per_copy = 5;
    files_per_copy = 50;
    write_buffer = 3072;
    client_mem = 512 * 1024 * 1024;
    compute_scale = 1.0;
  }

let phase_names = [ "mkdir"; "copy"; "scan"; "read"; "make" ]

(* Source-file sizes cycle over a fixed pattern averaging ~37 KB, so each
   copy carries ~1.8 MB: Andrew100 ~ 185 MB, Andrew500 ~ 925 MB, matching
   the paper's "approximately 200 MB and 1 GB". *)
let size_pattern =
  [| 2048; 4096; 6144; 8192; 12288; 16384; 24576; 32768; 49152; 65536; 98304; 131072 |]

let file_size index = size_pattern.(index mod Array.length size_pattern)

(* The generator mirrors the server file system locally so emitted calls
   carry concrete file handles. All three backends execute the identical
   call stream, so the mirror stays faithful. *)
type gen = {
  fs : Fs.t;
  mutable steps : Nfs_rig.step list;  (** reversed *)
  compute_scale : float;
}

let emit g step = g.steps <- step :: g.steps

let compute g seconds =
  if seconds > 0.0 then emit g (Nfs_rig.Compute (seconds *. g.compute_scale))

let call g c = emit g (Nfs_rig.Call c)

let must label = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "andrew generator: %s: %s" label (Fs.error_name e))

let do_mkdir g ~dir ~name =
  call g (Proto.Mkdir { dir; name; mode = 0o755 });
  let fh, _, _ = must "mkdir" (Fs.mkdir g.fs ~dir ~name ~mode:0o755) in
  fh

let do_create g ~dir ~name =
  call g (Proto.Create { dir; name; mode = 0o644 });
  let fh, _, _ = must "create" (Fs.create_file g.fs ~dir ~name ~mode:0o644) in
  fh

let do_write g ~fh ~off ~len =
  let data = Payload.zeros len in
  call g (Proto.Write { fh; off; data });
  ignore (must "write" (Fs.write g.fs fh ~off ~data))

let write_file g ~fh ~size ~buffer ~per_write_compute =
  let off = ref 0 in
  while !off < size do
    let len = Stdlib.min buffer (size - !off) in
    compute g per_write_compute;
    do_write g ~fh ~off:!off ~len;
    off := !off + len
  done

type copy_layout = {
  copy_dir : Fs.fh;
  subdirs : Fs.fh array;
  files : (Fs.fh * string * Fs.fh * int) array;  (** dir, name, fh, size *)
}

let generate (profile : profile) =
  let g =
    { fs = Fs.create (); steps = []; compute_scale = profile.compute_scale }
  in
  let layouts = ref [] in
  (* Phase 1: create the directory trees. *)
  emit g (Nfs_rig.Phase "start");
  let layouts_arr =
    Array.init profile.copies (fun c ->
        compute g 0.4e-3;
        let copy_dir = do_mkdir g ~dir:Fs.root ~name:(Printf.sprintf "copy%d" c) in
        let subdirs =
          Array.init
            (Stdlib.max 1 (profile.dirs_per_copy - 1))
            (fun d ->
              compute g 0.4e-3;
              do_mkdir g ~dir:copy_dir ~name:(Printf.sprintf "dir%d" d))
        in
        { copy_dir; subdirs; files = [||] })
  in
  emit g (Nfs_rig.Phase "mkdir");
  (* Phase 2: copy the source files. *)
  Array.iteri
    (fun c layout ->
      let files =
        Array.init profile.files_per_copy (fun i ->
            let dir = layout.subdirs.(i mod Array.length layout.subdirs) in
            let name = Printf.sprintf "f%d.c" i in
            let size = file_size ((c * profile.files_per_copy) + i) in
            compute g 1.2e-3;
            let fh = do_create g ~dir ~name in
            write_file g ~fh ~size ~buffer:profile.write_buffer
              ~per_write_compute:0.08e-3;
            (dir, name, fh, size))
      in
      layouts_arr.(c) <- { layout with files })
    layouts_arr;
  layouts := Array.to_list layouts_arr;
  let data_set =
    Array.fold_left
      (fun acc l -> Array.fold_left (fun acc (_, _, _, s) -> acc + s) acc l.files)
      0 layouts_arr
  in
  emit g (Nfs_rig.Phase "copy");
  (* Phase 3: stat every file (du / ls -lR). *)
  Array.iter
    (fun layout ->
      call g (Proto.Readdir layout.copy_dir);
      compute g 0.8e-3;
      Array.iter
        (fun sd ->
          call g (Proto.Readdir sd);
          compute g 0.8e-3)
        layout.subdirs;
      Array.iter
        (fun (dir, name, fh, _) ->
          compute g 0.12e-3;
          call g (Proto.Lookup { dir; name });
          call g (Proto.Getattr fh))
        layout.files)
    layouts_arr;
  emit g (Nfs_rig.Phase "scan");
  (* Phase 4: read every byte (grep). When the data set fits in the client
     cache it was just written by phase 2, so almost all reads are absorbed
     locally; only attribute revalidation and a residue of cold misses reach
     the server. *)
  let cached = data_set <= profile.client_mem in
  Array.iter
    (fun layout ->
      Array.iteri
        (fun i (dir, name, fh, size) ->
          compute g 0.35e-3;
          call g (Proto.Lookup { dir; name });
          let miss = (not cached) || i mod 10 = 0 in
          let chunks = (size + profile.write_buffer - 1) / profile.write_buffer in
          if miss then
            for k = 0 to chunks - 1 do
              compute g 0.09e-3;
              call g
                (Proto.Read
                   { fh; off = k * profile.write_buffer; len = profile.write_buffer })
            done
          else
            (* served from the client cache: scan cost only *)
            compute g (0.05e-3 *. float_of_int chunks))
        layout.files)
    layouts_arr;
  emit g (Nfs_rig.Phase "read");
  (* Phase 5: compile (client-compute heavy, writes object files). *)
  Array.iteri
    (fun c layout ->
      compute g 1.1;
      let objs = 10 in
      for i = 0 to objs - 1 do
        compute g 2.0e-3;
        let dir = layout.subdirs.(i mod Array.length layout.subdirs) in
        let fh = do_create g ~dir ~name:(Printf.sprintf "o%d_%d.o" c i) in
        write_file g ~fh ~size:11264 ~buffer:profile.write_buffer
          ~per_write_compute:0.08e-3
      done)
    layouts_arr;
  emit g (Nfs_rig.Phase "make");
  List.rev g.steps
