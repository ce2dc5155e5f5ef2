(* The saturation bench suite: the paper's 0/0, 4/0, 0/4 micro-operations
   plus a batched-throughput curve driven to saturation, all on the
   simulated clock. The results are deterministic for a fixed seed and
   byte-identical across hosts and hot-path refactors — the golden
   regression surface. What the simulator costs to run on the host is
   measured by the performance ledger (bench/ledger), not here. *)

type micro = {
  mi_label : string;
  mi_arg : int;
  mi_res : int;
  mi_mean_us : float;
  mi_stddev_us : float;
  mi_ops : int;
}

type point = {
  pt_clients : int;
  pt_ops_per_sec : float;
  pt_completed : int;
  pt_retransmissions : int;
}

type scale_point = {
  sc_groups : int;
  sc_clients : int;
  sc_completed : int;
  sc_retransmissions : int;
  sc_per_group : int array;
  sc_ops_per_sec : float;
}

type rotating_row = {
  ro_clients : int;
  ro_epoch_length : int;
  ro_single_ops_per_sec : float;
  ro_ops_per_sec : float;
  ro_completed : int;
  ro_retransmissions : int;
  ro_speedup : float;
}

type cross_row = {
  cx_fraction : float;
  cx_ops_per_sec : float;
  cx_completed : int;
  cx_cross_committed : int;
  cx_cross_aborted : int;
}

type health_row = {
  hl_label : string;
  hl_alerts : Bft_trace.Monitor.alert list;
  hl_line : string;
}

type t = {
  seed : int;
  quick : bool;
  cost_profile : string;  (** Calibration profile every rig ran under. *)
  micro : micro list;
  curve : point list;
  scaling : scale_point list;
  rotating : rotating_row;
  cross_shard : cross_row list;
  health : health_row list;
}

let micro_shapes = [ ("0/0", 0, 0); ("4/0", 4096, 0); ("0/4", 0, 4096) ]

let curve_clients ~quick =
  if quick then [ 1; 4; 12; 24 ] else [ 1; 2; 4; 8; 16; 24; 32; 48; 64 ]

(* Group counts swept by the scaling section: doublings up to [max_groups]
   (1, 2, 4, ...). *)
let scaling_groups ~max_groups =
  let rec go g acc = if g > max_groups then List.rev acc else go (2 * g) (g :: acc) in
  go 1 []

let scaling_clients_per_group ~quick = if quick then 12 else 16

(* The rotating-vs-single comparison row. The single primary's CPU is the
   batched curve's ceiling — past its peak, extra clients only deepen its
   queue — so rotating ordering saturates at a much higher client count.
   The row drives BOTH modes with the same heavy offered load so the
   comparison is the throughput ceiling, mode against mode, not a
   same-client-count footnote on the single-primary curve. *)
let rotating_clients = 256
let rotating_epoch_length = 4

(* The cross-shard transaction cost axis: the mixed workload at increasing
   cross-shard fractions on a fixed 2-group deployment. Fraction 0.0 is the
   plain sharded baseline through the transaction layer, so the marginal
   cost of 2PC reads straight off the row deltas. *)
let cross_fractions = [ 0.0; 0.1; 0.3 ]
let cross_groups = 2
let cross_clients_per_group ~quick = if quick then 8 else 12

let run ?(quick = false) ?(seed = 42) ?(max_groups = 4) ?(health = false)
    ?(cal = Bft_sim.Calibration.default) () =
  if max_groups < 1 then invalid_arg "Saturation.run: max_groups must be positive";
  let ops = if quick then 60 else 200 in
  (* With [health] every rig runs under an attached monitor; since
     observation is pure, the virtual-time fields — and therefore
     [virtual_json] — are byte-identical either way, which CI asserts. *)
  let health_rows = ref [] in
  let add_row hl_label monitors line =
    health_rows :=
      (fun () ->
        let hl_alerts = List.concat_map Bft_trace.Monitor.alerts monitors in
        { hl_label; hl_alerts; hl_line = line () })
      :: !health_rows
  in
  let fresh_monitor label =
    if not health then None
    else begin
      let m = Bft_trace.Monitor.create () in
      add_row label [ m ] (fun () -> Bft_trace.Monitor.summary m);
      Some m
    end
  in
  let micro =
    List.map
      (fun (label, arg, res) ->
        let r =
          Microbench.bft_latency ~ops ~seed ~cal
            ?monitor:(fresh_monitor ("micro " ^ label))
            ~arg ~res ~read_only:false ()
        in
        {
          mi_label = label;
          mi_arg = arg;
          mi_res = res;
          mi_mean_us = r.Microbench.mean *. 1e6;
          mi_stddev_us = r.Microbench.stddev *. 1e6;
          mi_ops = r.Microbench.ops;
        })
      micro_shapes
  in
  let window = if quick then 0.4 else 1.0 in
  let curve =
    List.map
      (fun clients ->
        let r =
          Microbench.bft_throughput ~seed ~window ~cal
            ?monitor:(fresh_monitor (Printf.sprintf "curve %d clients" clients))
            ~arg:0 ~res:0 ~read_only:false ~clients ()
        in
        {
          pt_clients = clients;
          pt_ops_per_sec = r.Microbench.ops_per_sec;
          pt_completed = r.Microbench.completed;
          pt_retransmissions = r.Microbench.retransmissions;
        })
      (curve_clients ~quick)
  in
  (* Scaling out: the same uniform-key workload against 1, 2 and 4 replica
     groups sharing one simulation — more groups retire more requests in
     the same simulated window. *)
  let per_group = scaling_clients_per_group ~quick in
  let scaling =
    List.map
      (fun groups ->
        let r =
          Microbench.sharded_throughput ~seed ~window ~cal ~health ~groups
            ~clients_per_group:per_group ()
        in
        if health then begin
          let ms = r.Microbench.sh_monitors in
          add_row
            (Printf.sprintf "scaling %d groups" groups)
            (Array.to_list ms)
            (fun () -> Bft_shard.Rig.(rollup_line (health_rollup ms)))
        end;
        {
          sc_groups = groups;
          sc_clients = groups * per_group;
          sc_completed = r.Microbench.sh_completed;
          sc_retransmissions = r.Microbench.sh_retransmissions;
          sc_per_group = r.Microbench.sh_per_group;
          sc_ops_per_sec = r.Microbench.sh_ops_per_sec;
        })
      (scaling_groups ~max_groups)
  in
  (* Rotating-vs-single saturation ceilings at [rotating_clients]. Runs
     after the scaling sweep on fresh clusters of their own, so the
     pre-existing golden sections are byte-identical with the mode off. *)
  let rotating =
    let throughput config label =
      Microbench.bft_throughput ~config ~seed ~window ~cal
        ?monitor:(fresh_monitor label) ~arg:0 ~res:0 ~read_only:false
        ~clients:rotating_clients ()
    in
    let single = throughput (Bft_core.Config.make ~f:1 ()) "rotating baseline" in
    let r =
      throughput
        (Bft_core.Config.make ~f:1
           ~ordering:
             (Bft_core.Config.Rotating { epoch_length = rotating_epoch_length })
           ())
        "rotating"
    in
    let single_ops = single.Microbench.ops_per_sec in
    {
      ro_clients = rotating_clients;
      ro_epoch_length = rotating_epoch_length;
      ro_single_ops_per_sec = single_ops;
      ro_ops_per_sec = r.Microbench.ops_per_sec;
      ro_completed = r.Microbench.completed;
      ro_retransmissions = r.Microbench.retransmissions;
      (* 0.0 sentinel, not nan: the field is serialized with %.2f into
         both JSON documents and a bare nan is invalid JSON. A zero-op
         baseline is degenerate anyway, so a zero speedup (which also
         fails the >= 1.3x gate) is the honest report. *)
      ro_speedup =
        (if single_ops > 0.0 then r.Microbench.ops_per_sec /. single_ops
         else 0.0);
    }
  in
  (* Cross-shard transaction cost: fresh rigs of their own, after every
     golden section, so the pre-existing golden surface is untouched. *)
  let cross_shard =
    List.map
      (fun fraction ->
        let r =
          Microbench.mixed_txn_throughput ~seed ~window ~cal
            ~groups:cross_groups
            ~clients_per_group:(cross_clients_per_group ~quick)
            ~cross_fraction:fraction ()
        in
        {
          cx_fraction = fraction;
          cx_ops_per_sec = r.Microbench.mx_ops_per_sec;
          cx_completed = r.Microbench.mx_completed;
          cx_cross_committed = r.Microbench.mx_cross_committed;
          cx_cross_aborted = r.Microbench.mx_cross_aborted;
        })
      cross_fractions
  in
  (* Health rows are thunks so each summary reflects the monitor's final
     state (registration order = run order). *)
  let health = List.rev_map (fun row -> row ()) !health_rows in
  let cost_profile = Bft_sim.Calibration.name cal in
  {
    seed;
    quick;
    cost_profile;
    micro;
    curve;
    scaling;
    rotating;
    cross_shard;
    health;
  }

let health_alerts t = List.concat_map (fun h -> h.hl_alerts) t.health

let health_lines t =
  if t.health = [] then []
  else
    let n = List.length (health_alerts t) in
    Printf.sprintf "health (always-on monitors, %d alert%s total):" n
      (if n = 1 then "" else "s")
    :: List.map (fun h -> Printf.sprintf "  %-18s %s" h.hl_label h.hl_line) t.health

(* Curve point with the highest throughput. *)
let peak t =
  List.fold_left
    (fun acc p ->
      match acc with
      | Some best when best.pt_ops_per_sec >= p.pt_ops_per_sec -> acc
      | _ -> Some p)
    None t.curve

(* Throughput ratio of the 2-group scaling row over the single-group row
   (nan when either row is missing or degenerate) — the scale-out gate:
   it should be >= 1.7x. *)
let scaling_speedup_2g t =
  let row g = List.find_opt (fun s -> s.sc_groups = g) t.scaling in
  match (row 1, row 2) with
  | Some base, Some s when base.sc_ops_per_sec > 0.0 ->
    s.sc_ops_per_sec /. base.sc_ops_per_sec
  | _ -> nan

(* Hand-rolled JSON: stable field order and fixed float formats, because
   the golden part is compared byte-for-byte against a checked-in file.
   Each object's fields are declared once, below, as a format that
   [golden_fields] / [to_json] print and [of_json] scans back. Every row
   object starts with the cost profile it ran under. *)
let schema_field : _ format6 = "{\"schema\":%S,"
let header_fields : _ format6 = "\"seed\":%d,\"quick\":%B,\"cost_profile\":%S"
let row_prefix : _ format6 = "{\"cost_profile\":%S,"

let micro_fields : _ format6 =
  "\"label\":%S,\"arg\":%d,\"res\":%d,\"mean_us\":%.3f,\"stddev_us\":%.3f,\"ops\":%d"

let point_fields : _ format6 =
  "\"clients\":%d,\"ops_per_sec\":%.1f,\"completed\":%d,\"retransmissions\":%d"

(* followed by the [per_group] array *)
let scale_fields : _ format6 =
  "\"groups\":%d,\"clients\":%d,\"sim_rps\":%.1f,\"completed\":%d,\"retransmissions\":%d,\"per_group\":"

let rotating_fields : _ format6 =
  "\"cost_profile\":%S,\"clients\":%d,\"epoch_length\":%d,\"single_ops_per_sec\":%.1f,\"ops_per_sec\":%.1f,\"completed\":%d,\"retransmissions\":%d,\"speedup\":%.2f"

let cross_fields : _ format6 =
  "\"cross_fraction\":%.2f,\"groups\":%d,\"ops_per_sec\":%.1f,\"completed\":%d,\"cross_committed\":%d,\"cross_aborted\":%d"

let json_rows buf profile rows emit =
  Buffer.add_char buf '[';
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf row_prefix profile;
      emit row;
      Buffer.add_char buf '}')
    rows;
  Buffer.add_char buf ']'

(* The golden surface under [schema], left open so [to_json] can append
   its extra fields before the closing brace. *)
let golden_fields ~schema t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.bprintf buf fmt in
  add schema_field schema;
  add header_fields t.seed t.quick t.cost_profile;
  add ",\"micro\":";
  json_rows buf t.cost_profile t.micro (fun m ->
      add micro_fields m.mi_label m.mi_arg m.mi_res m.mi_mean_us m.mi_stddev_us
        m.mi_ops);
  add ",\"saturation\":";
  json_rows buf t.cost_profile t.curve (fun p ->
      add point_fields p.pt_clients p.pt_ops_per_sec p.pt_completed
        p.pt_retransmissions);
  add ",\"scaling\":";
  json_rows buf t.cost_profile t.scaling (fun s ->
      add scale_fields s.sc_groups s.sc_clients s.sc_ops_per_sec s.sc_completed
        s.sc_retransmissions;
      add "[%s]"
        (String.concat ","
           (Array.to_list (Array.map string_of_int s.sc_per_group))));
  let r = t.rotating in
  add ",\"rotating\":{";
  add rotating_fields t.cost_profile r.ro_clients r.ro_epoch_length
    r.ro_single_ops_per_sec r.ro_ops_per_sec r.ro_completed r.ro_retransmissions
    r.ro_speedup;
  add "}";
  buf

let virtual_schema = "bft-lab/bench-virtual/v2"
let micro_schema = "bft-lab/bench-micro/v3"

let virtual_json t =
  let buf = golden_fields ~schema:virtual_schema t in
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_json t =
  let buf = golden_fields ~schema:micro_schema t in
  let add fmt = Printf.bprintf buf fmt in
  Option.iter
    (fun p ->
      add ",\"peak\":{\"clients\":%d,\"ops_per_sec\":%.1f}" p.pt_clients
        p.pt_ops_per_sec)
    (peak t);
  let speedup = scaling_speedup_2g t in
  if not (Float.is_nan speedup) then add ",\"scaling_speedup_2g\":%.2f" speedup;
  add ",\"cross_shard\":";
  json_rows buf t.cost_profile t.cross_shard (fun c ->
      add cross_fields c.cx_fraction cross_groups c.cx_ops_per_sec
        c.cx_completed c.cx_cross_committed c.cx_cross_aborted);
  add "}\n";
  Buffer.contents buf

(* The reader of exactly the two documents above, scanning the same field
   formats in the same order. Floats are read back from their
   fixed-precision text, so printing them again is byte-exact. The v3
   summaries (peak, 2-group speedup) are derived from the rows and
   skipped. *)
let of_json doc =
  let ib = Scanf.Scanning.from_string doc in
  let scan fmt = Scanf.bscanf ib fmt in
  let array item =
    let rec more () =
      let x = item () in
      if scan "%c" Fun.id = ',' then x :: more () else [ x ]
    in
    scan "[" ();
    if scan "%0c" Fun.id = ']' then (scan "]" (); []) else more ()
  in
  let rows fields row =
    array (fun () ->
        let r = scan (row_prefix ^^ fields) (fun _profile -> row) in
        scan "}" ();
        r)
  in
  try
    let schema = scan schema_field Fun.id in
    if schema <> virtual_schema && schema <> micro_schema then
      failwith (Printf.sprintf "unsupported schema %S" schema);
    let seed, quick, cost_profile =
      scan header_fields (fun seed quick profile -> (seed, quick, profile))
    in
    scan ",\"micro\":" ();
    let micro =
      rows micro_fields
        (fun mi_label mi_arg mi_res mi_mean_us mi_stddev_us mi_ops ->
          { mi_label; mi_arg; mi_res; mi_mean_us; mi_stddev_us; mi_ops })
    in
    scan ",\"saturation\":" ();
    let curve =
      rows point_fields
        (fun pt_clients pt_ops_per_sec pt_completed pt_retransmissions ->
          { pt_clients; pt_ops_per_sec; pt_completed; pt_retransmissions })
    in
    scan ",\"scaling\":" ();
    let scaling =
      rows scale_fields
        (fun sc_groups sc_clients sc_ops_per_sec sc_completed
             sc_retransmissions ->
          let ints = array (fun () -> scan "%d" Fun.id) in
          { sc_groups; sc_clients; sc_completed; sc_retransmissions;
            sc_per_group = Array.of_list ints; sc_ops_per_sec })
    in
    scan ",\"rotating\":{" ();
    let rotating =
      scan (rotating_fields ^^ "}")
        (fun _profile ro_clients ro_epoch_length ro_single_ops_per_sec
             ro_ops_per_sec ro_completed ro_retransmissions ro_speedup ->
          { ro_clients; ro_epoch_length; ro_single_ops_per_sec; ro_ops_per_sec;
            ro_completed; ro_retransmissions; ro_speedup })
    in
    let cross_shard =
      if schema = virtual_schema then []
      else begin
        scan "%_[^[]" ();
        rows cross_fields
          (fun cx_fraction _groups cx_ops_per_sec cx_completed
               cx_cross_committed cx_cross_aborted ->
            { cx_fraction; cx_ops_per_sec; cx_completed; cx_cross_committed;
              cx_cross_aborted })
      end
    in
    { seed; quick; cost_profile; micro; curve; scaling; rotating; cross_shard;
      health = [] }
  with
  | Scanf.Scan_failure msg | Failure msg -> failwith ("bench document: " ^ msg)
  | End_of_file -> failwith "bench document: truncated"

let print t =
  Printf.printf "micro-ops (seed %d%s, cost profile %s, simulated clock):\n"
    t.seed
    (if t.quick then ", quick" else "")
    t.cost_profile;
  List.iter
    (fun m ->
      Printf.printf "  %-4s %8.1f us (+/- %.1f, %d ops)\n" m.mi_label
        m.mi_mean_us m.mi_stddev_us m.mi_ops)
    t.micro;
  Printf.printf "batched throughput saturation (0/0):\n";
  List.iter
    (fun p ->
      Printf.printf "  %3d clients: %8.1f ops/s  (%5d completed, %d retrans)\n"
        p.pt_clients p.pt_ops_per_sec p.pt_completed p.pt_retransmissions)
    t.curve;
  Option.iter
    (fun p ->
      Printf.printf "peak: %.1f ops/s at %d clients\n" p.pt_ops_per_sec
        p.pt_clients)
    (peak t);
  Printf.printf "scaling out (uniform-key KV, %d clients/group):\n"
    (scaling_clients_per_group ~quick:t.quick);
  List.iter
    (fun s ->
      Printf.printf
        "  %d group%s: %8.1f ops/s  (%5d completed, %d retrans, per-group [%s])\n"
        s.sc_groups
        (if s.sc_groups = 1 then " " else "s")
        s.sc_ops_per_sec s.sc_completed s.sc_retransmissions
        (String.concat "; "
           (Array.to_list (Array.map string_of_int s.sc_per_group))))
    t.scaling;
  let speedup = scaling_speedup_2g t in
  if not (Float.is_nan speedup) then
    Printf.printf "2-group speedup over 1 group: %.2fx\n" speedup;
  let r = t.rotating in
  Printf.printf
    "rotating ordering (epoch length %d, %d clients): %8.1f ops/s vs %8.1f \
     single-primary (%.2fx)\n"
    r.ro_epoch_length r.ro_clients r.ro_ops_per_sec r.ro_single_ops_per_sec
    r.ro_speedup;
  Printf.printf
    "cross-shard transactions (%d groups, %d clients/group, txn layer):\n"
    cross_groups
    (cross_clients_per_group ~quick:t.quick);
  List.iter
    (fun c ->
      Printf.printf
        "  %.0f%% cross: %8.1f ops/s  (%5d completed, %d cross committed, %d \
         aborted)\n"
        (100.0 *. c.cx_fraction)
        c.cx_ops_per_sec c.cx_completed c.cx_cross_committed c.cx_cross_aborted)
    t.cross_shard;
  List.iter print_endline (health_lines t)
