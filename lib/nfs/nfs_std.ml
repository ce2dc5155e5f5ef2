module Network = Bft_net.Network
module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Calibration = Bft_sim.Calibration
module Payload = Bft_core.Payload
module Message = Bft_core.Message
module Metrics = Bft_core.Metrics
module Norep = Bft_core.Norep

type t = {
  network : Network.t;
  node : Network.node_id;
  fs : Fs.t;
  params : Nfs_service.params;
  metrics : Metrics.t;
  mutable disk_free : float;
  mutable disk_busy_total : float;
}

let fs t = t.fs

let metrics t = t.metrics

let disk_busy t = t.disk_busy_total

(* Per-call CPU relative to the user-space replicated server: the kernel
   server skips the user/kernel crossings. *)
let cpu_discount = 0.85

(* Reserve disk time; returns completion time. The disk is a serial
   resource separate from the CPU. *)
let reserve_disk t ~from seconds =
  let start = Float.max from t.disk_free in
  t.disk_free <- start +. seconds;
  t.disk_busy_total <- t.disk_busy_total +. seconds;
  t.disk_free

let handle t ~src (r : Message.request) =
  let cpu = Network.node_cpu t.network t.node in
  match Proto.decode_call r.Message.op with
  | None -> Metrics.incr t.metrics "malformed"
  | Some call ->
    let p = t.params in
    let data_len =
      match call with
      | Proto.Write { data; _ } -> Payload.size data
      | Proto.Read { len; _ } -> len
      | _ -> 0
    in
    Cpu.charge cpu
      (cpu_discount
      *. (p.Nfs_service.op_cpu
         +. (float_of_int data_len *. p.Nfs_service.byte_cpu)));
    Metrics.incr t.metrics ("call." ^ Proto.call_name call);
    let reply, _undo = Nfs_service.execute_call t.fs call in
    (* Disk: synchronous Ext2fs metadata updates + cache misses on bulk
       data; WRITE data itself is (incorrectly) not made stable. *)
    (* Ext2fs keeps directories as linear lists and updates metadata
       synchronously through knfsd: the cost of a CREATE/REMOVE grows with
       the directory. This is why NFS-STD pays many more disk accesses in
       PostMark (a 1000-entry pool directory) but almost nothing in Andrew
       (a handful of entries per directory). *)
    let disk_time =
      let meta =
        if Proto.is_metadata_mutation call then
          let dir =
            match call with
            | Proto.Create { dir; _ } | Proto.Remove { dir; _ }
            | Proto.Mkdir { dir; _ } | Proto.Rmdir { dir; _ }
            | Proto.Symlink { dir; _ } | Proto.Link { dir; _ } ->
              dir
            | Proto.Rename { to_dir; _ } -> to_dir
            | _ -> Fs.root
          in
          0.2e-3 +. (0.55e-6 *. float_of_int (Fs.dir_size t.fs dir))
        else 0.0
      in
      meta +. Nfs_service.miss_cost p t.fs data_len
    in
    let send_reply () =
      Norep.send_reply t.network ~src:t.node ~dst:src r (Proto.encode_reply reply)
    in
    if disk_time > 0.0 then begin
      Metrics.incr t.metrics "disk.sync_ops";
      let done_at = reserve_disk t ~from:(Cpu.virtual_now cpu) disk_time in
      Engine.schedule_at (Network.engine t.network) done_at (fun () ->
          Cpu.dispatch cpu send_reply)
    end
    else send_reply ()

let create ~network ~node ?(params = Nfs_service.default_params) () =
  let t =
    {
      network;
      node;
      fs = Fs.create ();
      params;
      metrics = Metrics.create ();
      disk_free = 0.0;
      disk_busy_total = 0.0;
    }
  in
  Norep.serve network node t.metrics (handle t);
  t
