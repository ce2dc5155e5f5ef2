(* Tests for the analytic performance model: reading the bench document,
   prediction pins against the golden bench surface, profile monotonicity,
   binding-resource flips, and output determinism. *)

module Model = Bft_workloads.Model
module Calibration = Bft_sim.Calibration
module Saturation = Bft_workloads.Saturation

let check = Alcotest.check

(* Under `dune runtest` the cwd is _build/default/test (the dune deps copy
   the golden next to it); under `dune exec` it is the workspace root. *)
let golden_path =
  List.find Sys.file_exists
    [ "../bench/golden_bench_virtual.json"; "bench/golden_bench_virtual.json" ]

let golden_text () = In_channel.with_open_bin golden_path In_channel.input_all
let read_golden () = Saturation.of_json (golden_text ())

(* --- reading the bench document ----------------------------------------- *)

let test_golden_parse () =
  let g = read_golden () in
  check Alcotest.string "profile" "testbed-2001" g.Saturation.cost_profile;
  check Alcotest.int "seed" 42 g.Saturation.seed;
  check Alcotest.int "micro rows" 3 (List.length g.Saturation.micro);
  check Alcotest.int "curve rows" 4 (List.length g.Saturation.curve);
  check Alcotest.bool "scaling rows" true (g.Saturation.scaling <> [])

let test_golden_parse_rejects_v1 () =
  let doc = {|{"schema":"bft-lab/bench-virtual/v1","seed":42}|} in
  match Saturation.of_json doc with
  | _ -> Alcotest.fail "v1 schema must be rejected"
  | exception Failure _ -> ()

(* The pinned golden reads back to rows that print it again byte for
   byte. *)
let test_golden_roundtrip () =
  let text = golden_text () in
  check Alcotest.string "virtual_json (of_json golden)" text
    (Saturation.virtual_json (Saturation.of_json text))

(* A BENCH_micro.json (bench-micro/v3) document reads back to the same
   rows: its golden sections, cross-shard rows and derived summaries
   print again unchanged. It names no wall-clock field. *)
let test_micro_json_roundtrip () =
  let t =
    {
      Saturation.seed = 7;
      quick = true;
      cost_profile = "testbed-2001";
      micro =
        [
          {
            Saturation.mi_label = "0/0";
            mi_arg = 0;
            mi_res = 0;
            mi_mean_us = 400.5;
            mi_stddev_us = 1.25;
            mi_ops = 60;
          };
        ];
      curve =
        [
          {
            Saturation.pt_clients = 4;
            pt_ops_per_sec = 6000.0;
            pt_completed = 2400;
            pt_retransmissions = 0;
          };
        ];
      scaling =
        [
          {
            Saturation.sc_groups = 1;
            sc_clients = 12;
            sc_completed = 4000;
            sc_retransmissions = 0;
            sc_per_group = [| 4000 |];
            sc_ops_per_sec = 10000.0;
          };
          {
            Saturation.sc_groups = 2;
            sc_clients = 24;
            sc_completed = 7600;
            sc_retransmissions = 3;
            sc_per_group = [| 3900; 3700 |];
            sc_ops_per_sec = 19000.0;
          };
        ];
      rotating =
        {
          Saturation.ro_clients = 256;
          ro_epoch_length = 4;
          ro_single_ops_per_sec = 15000.0;
          ro_ops_per_sec = 20000.0;
          ro_completed = 8000;
          ro_retransmissions = 0;
          ro_speedup = 1.33;
        };
      cross_shard =
        [
          {
            Saturation.cx_fraction = 0.1;
            cx_ops_per_sec = 5000.0;
            cx_completed = 2000;
            cx_cross_committed = 180;
            cx_cross_aborted = 20;
          };
        ];
      health = [];
    }
  in
  let micro_json = Saturation.to_json t in
  let back = Saturation.of_json micro_json in
  check Alcotest.string "to_json round-trips" micro_json
    (Saturation.to_json back);
  check Alcotest.string "same golden rows" (Saturation.virtual_json t)
    (Saturation.virtual_json back);
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  check Alcotest.bool "no wall-clock field" false (contains micro_json "wall")

(* --- prediction pins against the golden rows ---------------------------- *)

(* Every golden row predicted within the CI tolerance band on the default
   profile — the same gate `bft_lab model --check` enforces. *)
let test_report_within_tolerance () =
  let g = read_golden () in
  let report = Model.report ~cal:Calibration.default ~golden:g () in
  List.iter
    (fun r ->
      if not (Model.row_ok r) then
        Alcotest.failf "row %s out of band: observed %.1f predicted %.1f (%+.1f%%)"
          r.Model.rw_label r.Model.rw_observed r.Model.rw_predicted
          (100.0 *. r.Model.rw_rel_err))
    report.Model.rp_rows;
  check Alcotest.bool "report_ok" true (Model.report_ok report);
  (* one row per golden surface row: 3 micro + 4 curve + >=1 scaling +
     single-primary ceiling + rotating *)
  check Alcotest.bool "row count" true (List.length report.Model.rp_rows >= 10)

(* The closed-loop predictions against the known golden saturation numbers
   directly (pinned copies, so a silent golden regeneration cannot drift
   the model and this test together). *)
let test_saturation_pins () =
  let pin ~clients ~observed =
    let p =
      Model.predict ~cal:Calibration.default ~arg:0 ~res:0 ~clients ()
    in
    let err = (p.Model.pr_ops_per_sec -. observed) /. observed in
    if Float.abs err > Model.default_tolerance then
      Alcotest.failf "%d clients: predicted %.0f vs %.0f (%+.1f%%)" clients
        p.Model.pr_ops_per_sec observed (100.0 *. err)
  in
  pin ~clients:1 ~observed:2370.0;
  pin ~clients:4 ~observed:6310.0;
  pin ~clients:12 ~observed:11357.5;
  pin ~clients:24 ~observed:14192.5

let test_latency_pins () =
  let pin ~arg ~res ~observed_us =
    let p = Model.predict ~cal:Calibration.default ~arg ~res ~clients:1 () in
    let err = ((p.Model.pr_latency *. 1e6) -. observed_us) /. observed_us in
    if Float.abs err > Model.default_tolerance then
      Alcotest.failf "%d/%d: predicted %.1f us vs %.1f us (%+.1f%%)" arg res
        (p.Model.pr_latency *. 1e6)
        observed_us (100.0 *. err)
  in
  pin ~arg:0 ~res:0 ~observed_us:408.883;
  pin ~arg:4096 ~res:0 ~observed_us:1156.202;
  pin ~arg:0 ~res:4096 ~observed_us:1131.526

(* --- binding resource --------------------------------------------------- *)

(* On the 2001 testbed a 4 KB argument saturates the 100 Mb/s link before
   any CPU; on a 10 GbE profile the link widens 100x while CPU costs only
   shrink ~10x, so the binding resource flips to a CPU. *)
let test_binding_flips_with_profile () =
  let binds cal =
    (Model.predict ~cal ~arg:4096 ~res:0 ~clients:64 ()).Model.pr_binding
  in
  check Alcotest.string "testbed binds link" "link"
    (Model.resource_name (binds Calibration.testbed_2001));
  check Alcotest.bool "10gbe binds a cpu" true
    (match binds Calibration.tengbe_kernel with
    | Model.Link -> false
    | _ -> true)

(* --- monotonicity ------------------------------------------------------- *)

(* The three named profiles are strictly ordered cheapest-last. *)
let test_named_profiles_ordered () =
  let knee cal ~arg ~res =
    (Model.predict ~cal ~arg ~res ~clients:64 ()).Model.pr_knee_ops_per_sec
  in
  List.iter
    (fun (arg, res) ->
      let t = knee Calibration.testbed_2001 ~arg ~res in
      let g = knee Calibration.tengbe_kernel ~arg ~res in
      let r = knee Calibration.rdma_zerocopy ~arg ~res in
      if not (t < g && g < r) then
        Alcotest.failf "%d/%d knees not increasing: %.0f %.0f %.0f" arg res t
          g r)
    [ (0, 0); (4096, 0); (0, 4096); (64, 64) ]

(* Discounting every cost component of a profile (and widening the link)
   never lowers the predicted saturation knee. *)
let discount cal c =
  {
    cal with
    Calibration.name = "discounted";
    udp_send_cost = cal.Calibration.udp_send_cost *. c;
    udp_recv_cost = cal.Calibration.udp_recv_cost *. c;
    byte_touch_cost = cal.Calibration.byte_touch_cost *. c;
    digest_base_cost = cal.Calibration.digest_base_cost *. c;
    digest_byte_cost = cal.Calibration.digest_byte_cost *. c;
    mac_base_cost = cal.Calibration.mac_base_cost *. c;
    mac_byte_cost = cal.Calibration.mac_byte_cost *. c;
    pk_sign_cost = cal.Calibration.pk_sign_cost *. c;
    pk_verify_cost = cal.Calibration.pk_verify_cost *. c;
    protocol_op_cost = cal.Calibration.protocol_op_cost *. c;
    link_bandwidth = cal.Calibration.link_bandwidth /. c;
    switch_latency = cal.Calibration.switch_latency *. c;
  }

let monotone_prop =
  QCheck.Test.make ~name:"cheaper profile never lowers the predicted knee"
    ~count:200
    QCheck.(
      triple
        (float_range 0.05 1.0)
        (int_range 0 2048)
        (int_range 0 2048))
    (fun (c, arg, res) ->
      let base = Calibration.testbed_2001 in
      let cheap = discount base c in
      let knee cal =
        (Model.predict ~cal ~arg ~res ~clients:64 ()).Model.pr_knee_ops_per_sec
      in
      knee cheap >= knee base)

let latency_monotone_prop =
  QCheck.Test.make ~name:"cheaper profile never raises unloaded latency"
    ~count:200
    QCheck.(pair (float_range 0.05 1.0) (int_range 0 2048))
    (fun (c, arg) ->
      let base = Calibration.testbed_2001 in
      let cheap = discount base c in
      let lat cal =
        (Model.predict ~cal ~arg ~res:0 ~clients:1 ()).Model.pr_latency
      in
      lat cheap <= lat base)

(* --- determinism -------------------------------------------------------- *)

let test_render_deterministic () =
  let g = read_golden () in
  let render () =
    Model.render (Model.report ~cal:Calibration.default ~golden:g ())
  in
  check Alcotest.string "render stable" (render ()) (render ());
  let summ () = Model.summary ~cal:Calibration.default ~arg:0 ~res:0 () in
  check Alcotest.string "summary stable" (summ ()) (summ ())

(* The stdout of `bft_lab model`: the report table against the golden,
   then the 0/0 and 4096/0 budget summaries, byte for byte as pinned. *)
let test_model_stdout_golden () =
  let g = read_golden () in
  let cal = Calibration.default in
  let stdout =
    Model.render (Model.report ~cal ~golden:g ())
    ^ "\n"
    ^ Model.summary ~cal ~arg:0 ~res:0 ()
    ^ "\n\n"
    ^ Model.summary ~cal ~arg:4096 ~res:0 ()
    ^ "\n"
  in
  check Alcotest.string "matches golden/model_report.txt"
    (In_channel.with_open_bin "golden/model_report.txt" In_channel.input_all)
    stdout

(* Rotating prediction sits above the single-primary prediction at the
   golden operating point (the whole point of rotating ordering), and within
   tolerance of the measured rotating throughput. *)
let test_rotating_prediction () =
  let r = (read_golden ()).Saturation.rotating in
  let single =
    Model.predict ~cal:Calibration.default ~arg:0 ~res:0
      ~clients:r.Saturation.ro_clients ()
  in
  let rot =
    Model.predict_rotating ~cal:Calibration.default ~arg:0 ~res:0
      ~clients:r.Saturation.ro_clients
      ~epoch_length:r.Saturation.ro_epoch_length ()
  in
  check Alcotest.bool "rotating > single" true
    (rot > single.Model.pr_ops_per_sec);
  let observed = r.Saturation.ro_ops_per_sec in
  let err = (rot -. observed) /. observed in
  if Float.abs err > Model.default_tolerance then
    Alcotest.failf "rotating: predicted %.0f vs %.0f (%+.1f%%)" rot observed
      (100.0 *. err)

let () =
  Alcotest.run "model"
    [
      ( "golden",
        [
          Alcotest.test_case "parse" `Quick test_golden_parse;
          Alcotest.test_case "rejects v1" `Quick test_golden_parse_rejects_v1;
          Alcotest.test_case "round-trips byte for byte" `Quick
            test_golden_roundtrip;
          Alcotest.test_case "bench-micro/v3 round-trips" `Quick
            test_micro_json_roundtrip;
        ] );
      ( "pins",
        [
          Alcotest.test_case "report within tolerance" `Quick
            test_report_within_tolerance;
          Alcotest.test_case "saturation rows" `Quick test_saturation_pins;
          Alcotest.test_case "micro latencies" `Quick test_latency_pins;
          Alcotest.test_case "rotating" `Quick test_rotating_prediction;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "binding flips" `Quick
            test_binding_flips_with_profile;
          Alcotest.test_case "named profiles ordered" `Quick
            test_named_profiles_ordered;
          QCheck_alcotest.to_alcotest monotone_prop;
          QCheck_alcotest.to_alcotest latency_monotone_prop;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "render" `Quick test_render_deterministic;
          Alcotest.test_case "model stdout matches golden" `Quick
            test_model_stdout_golden;
        ] );
    ]
