(* Analytic performance model: predicts the benches from a cost profile.

   Given a {!Bft_sim.Calibration} profile and the protocol parameters, the
   model computes per-request CPU and wire occupancy at the primary and the
   backups from the same per-message cost formulas the simulator charges
   (Transport send/recv crypto + Network encode/decode + link
   serialization), then turns them into three predictions:

   - unloaded latency: the serial critical path of one batch-of-one round
     (request -> pre-prepare -> prepare -> tentative execution -> reply);
   - closed-loop throughput at [k] clients: a batch-cycle model. With
     [batch_window = 1] the primary proposes at most one batch ahead of
     execution, so the steady state is an alternation: cycle time is the
     larger of the primary's CPU work per batch and the non-overlappable
     critical path, plus (while there are no spare clients to keep the
     queue full) the client turnaround stall;
   - the saturation knee: throughput at the maximum batch size, capped by
     whichever resource — primary CPU, backup CPU, a host link, or the
     client machines — saturates first. The binding resource is the
     argmin, which is what flips between cost profiles: on the 2001
     testbed large ops are link-bound; on a 10 GbE kernel stack everything
     is CPU-bound; with a zero-copy transport only crypto + protocol work
     is left.

   Message sizes are exact: the model encodes representative messages with
   the real wire codec rather than re-deriving header arithmetic. *)

open Bft_core
module Calibration = Bft_sim.Calibration
module Fingerprint = Bft_crypto.Fingerprint

type resource = Primary_cpu | Backup_cpu | Link | Client_cpu

let resource_name = function
  | Primary_cpu -> "primary-cpu"
  | Backup_cpu -> "backup-cpu"
  | Link -> "link"
  | Client_cpu -> "client-cpu"

(* --- exact datagram sizes from the real codec ------------------------- *)

let datagram ~targets msg =
  let enc = Bft_util.Codec.Enc.create () in
  Message.encode_prefix_into enc ~sender:0 ~msg ~commits:[];
  Bft_util.Codec.Enc.length enc
  + Message.padding msg
  + Bft_crypto.Auth.wire_size_for ~entries:targets

(* Representative messages for an [arg]/[res] null-service operation. *)
type sizes = {
  sz_request : int;  (** client request datagram *)
  sz_request_targets : int;  (** 1 inline, [n] when separately transmitted *)
  sz_pre_prepare : int;  (** batch of [b] entries *)
  sz_prepare : int;
  sz_commit : int;
  sz_reply_digest : int;
  sz_reply_full : int;
  sz_checkpoint : int;
}

let request_for ~arg =
  {
    Message.client = 1000;
    timestamp = 1L;
    read_only = false;
    full_replies = false;
    replier = 0;
    op = Payload.zeros arg;
  }

let sizes ~(cfg : Config.t) ~arg ~res ~batch =
  let req = request_for ~arg in
  let digest = Message.request_digest req in
  let inline =
    (not cfg.separate_request_transmission) || arg <= Config.inline_threshold
  in
  let entry =
    if inline then Message.Full req else Message.Summary digest
  in
  let pp =
    Message.Pre_prepare
      { view = 0; seq = 1; entries = List.init batch (fun _ -> entry) }
  in
  let prepare = Message.Prepare { view = 0; seq = 1; digest; replica = 1 } in
  let commit = Message.Commit { view = 0; seq = 1; digest; replica = 1 } in
  let reply body =
    Message.Reply
      {
        view = 0;
        timestamp = 1L;
        client = 1000;
        replica = 1;
        tentative = true;
        epoch = 0;
        body;
      }
  in
  let checkpoint =
    Message.Checkpoint { seq = 128; digest; replica = 1 }
  in
  {
    sz_request =
      datagram ~targets:(if inline then 1 else cfg.n) (Message.Request req);
    sz_request_targets = (if inline then 1 else cfg.n);
    sz_pre_prepare = datagram ~targets:(cfg.n - 1) pp;
    sz_prepare = datagram ~targets:(cfg.n - 1) prepare;
    sz_commit = datagram ~targets:(cfg.n - 1) commit;
    sz_reply_digest =
      datagram ~targets:1 (reply (Message.Result_digest digest));
    sz_reply_full =
      datagram ~targets:1 (reply (Message.Full_result (Payload.zeros res)));
    sz_checkpoint = datagram ~targets:(cfg.n - 1) checkpoint;
  }

(* --- per-message costs (mirrors Transport + Network charges) ---------- *)

let send_cpu (cal : Calibration.t) ~size ~targets =
  cal.udp_send_cost
  +. (float_of_int size *. cal.byte_touch_cost)
  +. Calibration.digest_cost cal size
  +. (float_of_int targets *. Calibration.mac_cost cal Fingerprint.size)
  +. cal.protocol_op_cost

let recv_cpu (cal : Calibration.t) ~size =
  cal.udp_recv_cost
  +. (float_of_int size *. cal.byte_touch_cost)
  +. Calibration.digest_cost cal size
  +. Calibration.mac_cost cal Fingerprint.size
  +. cal.protocol_op_cost

(* One switched hop: egress serialization, switch, ingress serialization. *)
let wire_lat (cal : Calibration.t) ~size =
  (2.0 *. Calibration.transmission_time cal size) +. cal.switch_latency

let per_req (cost : float) ~batch = cost /. float_of_int batch

type prediction = {
  pr_profile : string;
  pr_clients : int;
  pr_batch : int;  (** modeled steady-state batch size *)
  pr_ops_per_sec : float;  (** predicted closed-loop throughput *)
  pr_knee_ops_per_sec : float;  (** saturation ceiling over all resources *)
  pr_binding : resource;  (** what binds at the ceiling *)
  pr_latency : float;  (** unloaded latency, seconds *)
  pr_primary_cpu : float;  (** CPU seconds per request at the primary *)
  pr_backup_cpu : float;  (** CPU seconds per request at a backup *)
  pr_client_cpu : float;  (** CPU seconds per request on client machines *)
  pr_primary_out_bytes : float;  (** egress wire bytes per request *)
  pr_primary_in_bytes : float;
  pr_backup_out_bytes : float;
  pr_backup_in_bytes : float;
}

(* Every modeled bench row runs the paper's defaults at f = 1. Rotating
   ordering changes who proposes, not n, batch bounds or checkpoint
   interval, so it needs no configuration of its own. *)
let cfg = Config.make ~f:1 ()

let exec_cpu (cal : Calibration.t) ~exec_fixed ~arg ~res =
  (* Service execute_cost (fixed, profile-independent) plus the simulator's
     byte_touch charge on the produced result. [arg] only matters through
     the service's own cost hook, which the null service ignores. *)
  ignore arg;
  exec_fixed +. (float_of_int res *. cal.byte_touch_cost)

(* Per-batch costs at every replica that do not depend on the batch size:
   the eager commit round (multicast one commit, verify n-1), the
   checkpoint round amortised over its interval, and one digest reply. *)
type round = { ckpt_amort : float; commit_cpu : float; reply_send : float }

let round_costs (cal : Calibration.t) sz =
  let n = cfg.n in
  let send = send_cpu cal and recv = recv_cpu cal in
  {
    ckpt_amort =
      (send ~size:sz.sz_checkpoint ~targets:(n - 1)
      +. (float_of_int (n - 1) *. recv ~size:sz.sz_checkpoint))
      /. float_of_int cfg.checkpoint_interval;
    commit_cpu =
      send ~size:sz.sz_commit ~targets:(n - 1)
      +. (float_of_int (n - 1) *. recv ~size:sz.sz_commit);
    reply_send = send ~size:sz.sz_reply_digest ~targets:1;
  }

(* Per-batch CPU at the primary for a batch of [batch] requests: ingest
   them, multicast the pre-prepare, verify the backups' prepares, execute
   tentatively, send the replies, then the commit and checkpoint rounds. *)
let primary_batch_cpu (cal : Calibration.t) rc sz ~batch ~exec =
  let n = cfg.n and fb = float_of_int batch in
  let send = send_cpu cal and recv = recv_cpu cal in
  (fb *. recv ~size:sz.sz_request)
  +. send ~size:sz.sz_pre_prepare ~targets:(n - 1)
  +. (float_of_int (n - 1) *. recv ~size:sz.sz_prepare)
  +. (fb *. (exec +. rc.reply_send))
  +. rc.commit_cpu +. rc.ckpt_amort

(* Critical path of one batch round at the primary (requests already
   queued): batch formation, pre-prepare hop, backup turnaround, the 2f-th
   prepare, execution and replies. *)
let critical_path (cal : Calibration.t) rc sz ~batch ~exec =
  let n = cfg.n and f = cfg.f and fb = float_of_int batch in
  let send = send_cpu cal and recv = recv_cpu cal in
  (fb *. recv ~size:sz.sz_request)
  +. send ~size:sz.sz_pre_prepare ~targets:(n - 1)
  +. wire_lat cal ~size:sz.sz_pre_prepare
  +. recv ~size:sz.sz_pre_prepare
  +. send ~size:sz.sz_prepare ~targets:(n - 1)
  +. wire_lat cal ~size:sz.sz_prepare
  +. (float_of_int (2 * f) *. recv ~size:sz.sz_prepare)
  +. (fb *. (exec +. rc.reply_send))

let predict ?(exec_fixed = 0.0) ~(cal : Calibration.t) ~arg ~res ~clients () =
  let n = cfg.n and f = cfg.f in
  let b = max 1 (min clients cfg.max_batch_requests) in
  let sz = sizes ~cfg ~arg ~res ~batch:b in
  let sz1 = sizes ~cfg ~arg ~res ~batch:1 in
  let send = send_cpu cal and recv = recv_cpu cal in
  let exec = exec_cpu cal ~exec_fixed ~arg ~res in
  let fb = float_of_int b in
  let rc = round_costs cal sz in
  let primary_batch = primary_batch_cpu cal rc sz ~batch:b ~exec in
  (* A backup: receive the pre-prepare (plus the separately-transmitted
     request bodies when the client multicasts), multicast its prepare,
     verify the other backups' prepares, execute, reply, commit. *)
  let backup_batch_cpu =
    recv ~size:sz.sz_pre_prepare
    +. (if sz.sz_request_targets > 1 then fb *. recv ~size:sz.sz_request
        else 0.0)
    +. send ~size:sz.sz_prepare ~targets:(n - 1)
    +. (float_of_int (n - 2) *. recv ~size:sz.sz_prepare)
    +. (fb *. (exec +. rc.reply_send))
    +. rc.commit_cpu +. rc.ckpt_amort
  in
  (* Client machines: send the request, verify all n replies. *)
  let client_req_cpu =
    send ~size:sz1.sz_request ~targets:sz.sz_request_targets
    +. (float_of_int (n - 1) *. recv ~size:sz1.sz_reply_digest)
    +. recv ~size:sz1.sz_reply_full
  in
  let path_nostall = critical_path cal rc sz ~batch:b ~exec in
  (* Client turnaround, appended when every client is in the batch (no
     spare clients to keep the request queue non-empty). *)
  let turnaround =
    wire_lat cal ~size:sz.sz_reply_full
    +. (float_of_int (2 * f) *. recv ~size:sz.sz_reply_digest)
    +. recv ~size:sz.sz_reply_full
    +. send ~size:sz1.sz_request ~targets:sz.sz_request_targets
    +. wire_lat cal ~size:sz.sz_request
  in
  let cycle ~stalled =
    max primary_batch path_nostall
    +. (if stalled then turnaround else 0.0)
  in
  (* Wire occupancy per request, in bytes on each host's full-duplex link.
     A multicast serializes once on the sender's egress. *)
  let wb sz = float_of_int (Calibration.wire_bytes cal sz) in
  let primary_out =
    per_req (wb sz.sz_pre_prepare) ~batch:b
    +. wb sz.sz_reply_digest
    +. per_req (wb sz.sz_commit) ~batch:b
  in
  let primary_in =
    wb sz.sz_request
    +. (float_of_int (n - 1) *. per_req (wb sz.sz_prepare) ~batch:b)
    +. (float_of_int (n - 1) *. per_req (wb sz.sz_commit) ~batch:b)
  in
  let backup_out =
    per_req (wb sz.sz_prepare) ~batch:b
    +. wb sz.sz_reply_digest
    +. per_req (wb sz.sz_commit) ~batch:b
  in
  let backup_in =
    per_req (wb sz.sz_pre_prepare) ~batch:b
    +. (if sz.sz_request_targets > 1 then wb sz.sz_request else 0.0)
    +. (float_of_int (n - 2) *. per_req (wb sz.sz_prepare) ~batch:b)
    +. (float_of_int (n - 1) *. per_req (wb sz.sz_commit) ~batch:b)
  in
  let primary_cpu = primary_batch /. fb in
  let backup_cpu = backup_batch_cpu /. fb in
  let client_cpu = client_req_cpu in
  let cap x = if x > 0.0 then 1.0 /. x else infinity in
  let link_time bytes = bytes /. cal.link_bandwidth in
  let caps =
    [
      (Primary_cpu, cap primary_cpu);
      (Backup_cpu, cap backup_cpu);
      ( Link,
        cap
          (link_time
             (max (max primary_out primary_in) (max backup_out backup_in)))
      );
      (Client_cpu, float_of_int Microbench.client_machines *. cap client_cpu);
    ]
  in
  let binding, _ =
    List.fold_left
      (fun (br, bx) (r, x) -> if x < bx then (r, x) else (br, bx))
      (Primary_cpu, cap primary_cpu)
      (List.tl caps)
  in
  let resource_cap =
    List.fold_left (fun acc (_, x) -> min acc x) infinity caps
  in
  (* The knee: cycle throughput at the maximum batch size with a full
     request queue, clipped by the resource caps. *)
  let knee =
    let batch = cfg.max_batch_requests in
    let szk = sizes ~cfg ~arg ~res ~batch in
    min
      (float_of_int batch
      /. max
           (primary_batch_cpu cal rc szk ~batch ~exec)
           (critical_path cal rc szk ~batch ~exec))
      resource_cap
  in
  (* Unloaded latency: the batch-of-one critical path, client legs on the
     latency rig's faster client machine. *)
  let latency =
    let c cost = cost /. Microbench.client_speed in
    c (send_cpu cal ~size:sz1.sz_request ~targets:sz.sz_request_targets)
    +. wire_lat cal ~size:sz1.sz_request
    +. recv ~size:sz1.sz_request
    +. send ~size:sz1.sz_pre_prepare ~targets:(n - 1)
    +. wire_lat cal ~size:sz1.sz_pre_prepare
    +. recv ~size:sz1.sz_pre_prepare
    +. send ~size:sz1.sz_prepare ~targets:(n - 1)
    +. wire_lat cal ~size:sz1.sz_prepare
    +. (float_of_int (2 * f) *. recv ~size:sz1.sz_prepare)
    +. exec
    +. rc.reply_send
    +. wire_lat cal ~size:sz1.sz_reply_full
    +. c (float_of_int (2 * f) *. recv ~size:sz1.sz_reply_digest)
    +. c (recv ~size:sz1.sz_reply_full)
  in
  let stalled = clients <= cfg.max_batch_requests in
  let t_cycle = cycle ~stalled in
  let throughput =
    if clients <= 1 then min (1.0 /. latency) resource_cap
    else min (fb /. t_cycle) resource_cap
  in
  {
    pr_profile = cal.name;
    pr_clients = clients;
    pr_batch = b;
    pr_ops_per_sec = throughput;
    pr_knee_ops_per_sec = knee;
    pr_binding = binding;
    pr_latency = latency;
    pr_primary_cpu = primary_cpu;
    pr_backup_cpu = backup_cpu;
    pr_client_cpu = client_cpu;
    pr_primary_out_bytes = primary_out;
    pr_primary_in_bytes = primary_in;
    pr_backup_out_bytes = backup_out;
    pr_backup_in_bytes = backup_in;
  }

(* Rotating ordering: all n replicas propose disjoint epochs concurrently,
   so request ingestion and proposing spread n ways while prepare/commit
   verification and (crucially) execution + replies stay per-request work
   at every replica. Throughput is bound by the average per-replica CPU
   per batch; epoch handoff (null fills, reclaims) is second-order at
   saturation and not modeled. *)
let predict_rotating ~(cal : Calibration.t) ~arg ~res ~clients ~epoch_length:_
    () =
  let n = cfg.n in
  let b = max 1 (min clients cfg.max_batch_requests) in
  let sz = sizes ~cfg ~arg ~res ~batch:b in
  let send = send_cpu cal and recv = recv_cpu cal in
  let exec = exec_cpu cal ~exec_fixed:0.0 ~arg ~res in
  let fb = float_of_int b in
  let fn = float_of_int n in
  let rc = round_costs cal sz in
  (* Per batch: the proposer's share (1/n of batches) and a non-proposer's
     share ((n-1)/n), averaged — every replica is both in rotation. *)
  let proposer_cpu =
    (fb *. recv ~size:sz.sz_request)
    +. send ~size:sz.sz_pre_prepare ~targets:(n - 1)
    +. (float_of_int (n - 1) *. recv ~size:sz.sz_prepare)
  in
  let nonproposer_cpu =
    recv ~size:sz.sz_pre_prepare
    +. send ~size:sz.sz_prepare ~targets:(n - 1)
    +. (float_of_int (n - 2) *. recv ~size:sz.sz_prepare)
  in
  let avg_batch_cpu =
    ((proposer_cpu +. (float_of_int (n - 1) *. nonproposer_cpu)) /. fn)
    +. (fb *. (exec +. rc.reply_send))
    +. rc.commit_cpu +. rc.ckpt_amort
  in
  let client_req_cpu =
    send ~size:sz.sz_request ~targets:sz.sz_request_targets
    +. (fn *. recv ~size:sz.sz_reply_digest)
  in
  let cap x = if x > 0.0 then 1.0 /. x else infinity in
  min (fb /. avg_batch_cpu)
    (float_of_int Microbench.client_machines *. cap client_req_cpu)

(* --- predicted-vs-observed report over the golden bench surface ------- *)

type row = {
  rw_label : string;
  rw_unit : string;
  rw_observed : float;
  rw_predicted : float;
  rw_rel_err : float;  (** (predicted - observed) / observed *)
  rw_binding : resource option;  (** throughput rows only *)
}

type report = {
  rp_profile : string;
  rp_rows : row list;
}

let default_tolerance = 0.25

(* The scaling rows run uniform-single-key KV Puts, not the null op: a
   short encoded op, a small result, and the KV service's fixed
   execute_cost. The sizes are approximations (a few bytes either way is
   well under a microsecond of cost). *)
let kv_arg = 12
let kv_res = 4

let mk_row ~label ~unit_ ~observed ~predicted ~binding =
  {
    rw_label = label;
    rw_unit = unit_;
    rw_observed = observed;
    rw_predicted = predicted;
    rw_rel_err =
      (if observed > 0.0 then (predicted -. observed) /. observed
       else infinity);
    rw_binding = binding;
  }

let report ~(cal : Calibration.t) ~(golden : Saturation.t) () =
  let micro_rows =
    List.map
      (fun (m : Saturation.micro) ->
        let p = predict ~cal ~arg:m.mi_arg ~res:m.mi_res ~clients:1 () in
        mk_row
          ~label:(Printf.sprintf "micro %s latency" m.mi_label)
          ~unit_:"us" ~observed:m.mi_mean_us
          ~predicted:(p.pr_latency *. 1e6)
          ~binding:None)
      golden.micro
  in
  let curve_rows =
    List.map
      (fun (pt : Saturation.point) ->
        let p = predict ~cal ~arg:0 ~res:0 ~clients:pt.pt_clients () in
        mk_row
          ~label:(Printf.sprintf "saturation %d clients" pt.pt_clients)
          ~unit_:"ops/s" ~observed:pt.pt_ops_per_sec
          ~predicted:p.pr_ops_per_sec
          ~binding:(Some p.pr_binding))
      golden.curve
  in
  let scaling_rows =
    List.map
      (fun (s : Saturation.scale_point) ->
        let per_group = s.sc_clients / max 1 s.sc_groups in
        let p =
          predict ~cal ~arg:kv_arg ~res:kv_res
            ~exec_fixed:Bft_services.Kv_store.exec_base_cost
            ~clients:per_group ()
        in
        mk_row
          ~label:(Printf.sprintf "scaling %d groups" s.sc_groups)
          ~unit_:"req/s" ~observed:s.sc_ops_per_sec
          ~predicted:(float_of_int s.sc_groups *. p.pr_ops_per_sec)
          ~binding:(Some p.pr_binding))
      golden.scaling
  in
  let rotating_rows =
    let r = golden.rotating in
    let single = predict ~cal ~arg:0 ~res:0 ~clients:r.ro_clients () in
    let rotating =
      predict_rotating ~cal ~arg:0 ~res:0 ~clients:r.ro_clients
        ~epoch_length:r.ro_epoch_length ()
    in
    [
      mk_row
        ~label:(Printf.sprintf "single-primary ceiling %d clients" r.ro_clients)
        ~unit_:"ops/s" ~observed:r.ro_single_ops_per_sec
        ~predicted:single.pr_ops_per_sec
        ~binding:(Some single.pr_binding);
      mk_row
        ~label:
          (Printf.sprintf "rotating L=%d %d clients" r.ro_epoch_length
             r.ro_clients)
        ~unit_:"ops/s" ~observed:r.ro_ops_per_sec ~predicted:rotating
        ~binding:(Some Backup_cpu);
    ]
  in
  {
    rp_profile = cal.name;
    rp_rows = micro_rows @ curve_rows @ scaling_rows @ rotating_rows;
  }

let row_ok r = Float.abs r.rw_rel_err <= default_tolerance

let report_ok t = List.for_all row_ok t.rp_rows

(* Deterministic rendering: pure arithmetic in, fixed formats out. *)
let render t =
  let buf = Buffer.create 1024 in
  Printf.ksprintf (Buffer.add_string buf)
    "analytic model vs observed (cost profile %s, tolerance %.0f%%):\n"
    t.rp_profile (default_tolerance *. 100.0);
  Printf.ksprintf (Buffer.add_string buf) "  %-34s %12s %12s %7s  %-11s %s\n"
    "row" "observed" "predicted" "err" "binds" "";
  List.iter
    (fun r ->
      Printf.ksprintf (Buffer.add_string buf)
        "  %-34s %9.1f %s %9.1f %s %+6.1f%%  %-11s %s\n" r.rw_label
        r.rw_observed r.rw_unit r.rw_predicted r.rw_unit
        (r.rw_rel_err *. 100.0)
        (match r.rw_binding with
        | Some b -> resource_name b
        | None -> "-")
        (if row_ok r then "" else "OUT OF BAND"))
    t.rp_rows;
  let worst =
    List.fold_left (fun acc r -> max acc (Float.abs r.rw_rel_err)) 0.0 t.rp_rows
  in
  Printf.ksprintf (Buffer.add_string buf) "  worst |err| %.1f%%: %s\n"
    (worst *. 100.0)
    (if report_ok t then "within tolerance" else "TOLERANCE EXCEEDED");
  Buffer.contents buf

(* Profile summary: the per-request budget table for one shape, the
   explanation layer over the report. *)
let summary ~(cal : Calibration.t) ~arg ~res () =
  let p = predict ~cal ~arg ~res ~clients:(4 * cfg.max_batch_requests) ()
  in
  let buf = Buffer.create 512 in
  Printf.ksprintf (Buffer.add_string buf)
    "profile %s, %d/%d op at batch %d:\n" cal.name arg res p.pr_batch;
  Printf.ksprintf (Buffer.add_string buf)
    "  per-request CPU: primary %.1f us, backup %.1f us, client %.1f us\n"
    (p.pr_primary_cpu *. 1e6) (p.pr_backup_cpu *. 1e6)
    (p.pr_client_cpu *. 1e6);
  Printf.ksprintf (Buffer.add_string buf)
    "  per-request wire: primary out/in %.0f/%.0f B, backup out/in %.0f/%.0f B\n"
    p.pr_primary_out_bytes p.pr_primary_in_bytes p.pr_backup_out_bytes
    p.pr_backup_in_bytes;
  Printf.ksprintf (Buffer.add_string buf)
    "  unloaded latency %.1f us; saturation knee %.0f ops/s, bound by %s\n"
    (p.pr_latency *. 1e6) p.pr_knee_ops_per_sec
    (resource_name p.pr_binding);
  Buffer.contents buf
