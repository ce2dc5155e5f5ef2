module Payload = Bft_core.Payload
module Service = Bft_core.Service
module Calibration = Bft_sim.Calibration

type params = {
  mem_bytes : int;
  op_cpu : float;
  byte_cpu : float;
  disk : Calibration.t;
}

let default_params =
  {
    mem_bytes = 512 * 1024 * 1024;
    op_cpu = 40e-6;
    byte_cpu = 4e-9;
    disk = Calibration.default;
  }

let no_undo () = ()

let execute_call fs call : Proto.reply * Service.undo =
  let ok_undo r = (r, no_undo) in
  match (call : Proto.call) with
  | Proto.Getattr fh -> (
    match Fs.getattr fs fh with
    | Ok a -> ok_undo (Proto.Attr a)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Setattr { fh; size; mode } -> (
    match Fs.setattr fs fh ?size ?mode () with
    | Ok (a, undo) -> (Proto.Attr a, undo)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Lookup { dir; name } -> (
    match Fs.lookup fs ~dir ~name with
    | Ok (fh, a) -> ok_undo (Proto.Entry (fh, a))
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Readlink fh -> (
    match Fs.readlink fs fh with
    | Ok p -> ok_undo (Proto.Path p)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Read { fh; off; len } -> (
    match Fs.read fs fh ~off ~len with
    | Ok d -> ok_undo (Proto.Data d)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Write { fh; off; data } -> (
    match Fs.write fs fh ~off ~data with
    | Ok (a, undo) -> (Proto.Attr a, undo)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Create { dir; name; mode } -> (
    match Fs.create_file fs ~dir ~name ~mode with
    | Ok (fh, a, undo) -> (Proto.Created (fh, a), undo)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Remove { dir; name } -> (
    match Fs.remove fs ~dir ~name with
    | Ok undo -> (Proto.Ok_unit, undo)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Rename { from_dir; from_name; to_dir; to_name } -> (
    match Fs.rename fs ~from_dir ~from_name ~to_dir ~to_name with
    | Ok undo -> (Proto.Ok_unit, undo)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Link { src; dir; name } -> (
    match Fs.link fs ~src ~dir ~name with
    | Ok undo -> (Proto.Ok_unit, undo)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Symlink { dir; name; target } -> (
    match Fs.symlink fs ~dir ~name ~target with
    | Ok (fh, undo) ->
      (Proto.Created (fh, { Fs.ftype = Fs.Lnk; mode = 0o777; nlink = 1;
                            size = String.length target; mtime = 0; ctime = 0 }),
       undo)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Mkdir { dir; name; mode } -> (
    match Fs.mkdir fs ~dir ~name ~mode with
    | Ok (fh, a, undo) -> (Proto.Created (fh, a), undo)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Rmdir { dir; name } -> (
    match Fs.rmdir fs ~dir ~name with
    | Ok undo -> (Proto.Ok_unit, undo)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Readdir fh -> (
    match Fs.readdir fs fh with
    | Ok names -> ok_undo (Proto.Names names)
    | Error e -> ok_undo (Proto.Err e))
  | Proto.Statfs ->
    let bytes, files = Fs.statfs fs in
    ok_undo (Proto.Fsinfo (bytes, files))

(* Expected cache-miss disk time for an access of [len] bytes when the data
   set exceeds memory. Deterministic (an expectation, not a sample) so all
   replicas charge identically. *)
let miss_cost params fs len =
  let total = Fs.total_bytes fs in
  if total <= params.mem_bytes || len = 0 then 0.0
  else begin
    let miss_fraction =
      1.0 -. (float_of_int params.mem_bytes /. float_of_int total)
    in
    miss_fraction
    *. ((0.25 *. params.disk.Calibration.disk_seek)
       +. (float_of_int len /. params.disk.Calibration.disk_bandwidth))
  end

let call_cost params fs (call : Proto.call) =
  let data_len =
    match call with
    | Proto.Write { data; _ } -> Payload.size data
    | Proto.Read { len; _ } -> len
    | _ -> 0
  in
  params.op_cpu
  +. (float_of_int data_len *. params.byte_cpu)
  +. miss_cost params fs data_len

let create ?(params = default_params) fs =
  let dirty = ref 0 in
  let snapshot () = Payload.of_string (Fs.snapshot fs) in
  {
    Service.execute =
      (fun ~client:_ ~op ->
        match Proto.decode_call op with
        | None -> (Proto.encode_reply (Proto.Err Fs.EINVAL), no_undo)
        | Some call ->
          (match call with
          | Proto.Write { data; _ } -> dirty := !dirty + Payload.size data
          | c when Proto.is_metadata_mutation c -> dirty := !dirty + 256
          | _ -> ());
          let reply, undo = execute_call fs call in
          (Proto.encode_reply reply, undo));
    is_read_only =
      (fun op ->
        match Proto.decode_call op with
        | Some call -> Proto.is_read_only call
        | None -> false);
    execute_cost =
      (fun op ->
        match Proto.decode_call op with
        | Some call -> call_cost params fs call
        | None -> params.op_cpu);
    state_digest = (fun () -> Fs.state_digest fs);
    modified_since_checkpoint = (fun () -> !dirty);
    checkpoint_taken = (fun () -> dirty := 0);
    snapshot;
    capture = Service.capture_of_snapshot snapshot;
    restore =
      (fun p ->
        Fs.restore fs p.Payload.data;
        dirty := 0);
  }
