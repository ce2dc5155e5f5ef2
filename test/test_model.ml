(* Tests for the analytic performance model: prediction pins against the
   golden bench surface, profile monotonicity, binding-resource flips, and
   output determinism. *)

module Model = Bft_workloads.Model
module Calibration = Bft_sim.Calibration

let check = Alcotest.check

(* Under `dune runtest` the cwd is _build/default/test (the dune deps copy
   the golden next to it); under `dune exec` it is the workspace root. *)
let golden_path =
  List.find Sys.file_exists
    [ "../bench/golden_bench_virtual.json"; "bench/golden_bench_virtual.json" ]

let read_golden () =
  let contents = In_channel.with_open_bin golden_path In_channel.input_all in
  Model.Golden.parse contents

(* --- golden parsing ----------------------------------------------------- *)

let test_golden_parse () =
  let g = read_golden () in
  check Alcotest.string "profile" "testbed-2001" g.Model.Golden.g_profile;
  check Alcotest.int "seed" 42 g.Model.Golden.g_seed;
  check Alcotest.int "micro rows" 3 (List.length g.Model.Golden.g_micro);
  check Alcotest.int "curve rows" 4 (List.length g.Model.Golden.g_curve);
  check Alcotest.bool "scaling rows" true (List.length g.Model.Golden.g_scaling >= 1);
  check Alcotest.bool "rotating section" true
    (Option.is_some g.Model.Golden.g_rotating)

let test_golden_parse_rejects_v1 () =
  let doc = {|{"schema":"bft-lab/bench-virtual/v1","seed":42}|} in
  match Model.Golden.parse doc with
  | _ -> Alcotest.fail "v1 schema must be rejected"
  | exception Failure _ -> ()

(* BENCH_micro.json (bench-micro/v3) carries the golden sections verbatim,
   so the model reads the same rows from it as from the golden file; and
   it names no wall-clock field. *)
let test_micro_json_parses_like_golden () =
  let module S = Bft_workloads.Saturation in
  let t =
    {
      S.seed = 7;
      quick = true;
      cost_profile = "testbed-2001";
      micro =
        [
          {
            S.mi_label = "0/0";
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
            S.pt_clients = 4;
            pt_ops_per_sec = 6000.0;
            pt_completed = 2400;
            pt_retransmissions = 0;
          };
        ];
      scaling =
        [
          {
            S.sc_groups = 1;
            sc_clients = 12;
            sc_completed = 4000;
            sc_retransmissions = 0;
            sc_per_group = [| 4000 |];
            sc_ops_per_sec = 10000.0;
          };
        ];
      rotating =
        {
          S.ro_clients = 256;
          ro_epoch_length = 4;
          ro_single_ops_per_sec = 15000.0;
          ro_ops_per_sec = 20000.0;
          ro_completed = 8000;
          ro_retransmissions = 0;
          ro_speedup = 1.33;
        };
      cross_shard = [];
      health = [];
    }
  in
  let micro_json = S.to_json t in
  check Alcotest.bool "same rows as the golden document" true
    (Model.Golden.parse micro_json = Model.Golden.parse (S.virtual_json t));
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

(* Rotating prediction sits above the single-primary prediction at the
   golden operating point (the whole point of rotating ordering), and within
   tolerance of the measured rotating throughput. *)
let test_rotating_prediction () =
  let g = read_golden () in
  match g.Model.Golden.g_rotating with
  | None -> Alcotest.fail "golden has no rotating section"
  | Some r ->
    let single =
      Model.predict ~cal:Calibration.default ~arg:0 ~res:0
        ~clients:r.Model.Golden.gr_clients ()
    in
    let rot =
      Model.predict_rotating ~cal:Calibration.default ~arg:0 ~res:0
        ~clients:r.Model.Golden.gr_clients
        ~epoch_length:r.Model.Golden.gr_epoch_length ()
    in
    check Alcotest.bool "rotating > single" true
      (rot > single.Model.pr_ops_per_sec);
    let err = (rot -. r.Model.Golden.gr_ops) /. r.Model.Golden.gr_ops in
    if Float.abs err > Model.default_tolerance then
      Alcotest.failf "rotating: predicted %.0f vs %.0f (%+.1f%%)" rot
        r.Model.Golden.gr_ops (100.0 *. err)

let () =
  Alcotest.run "model"
    [
      ( "golden",
        [
          Alcotest.test_case "parse" `Quick test_golden_parse;
          Alcotest.test_case "rejects v1" `Quick test_golden_parse_rejects_v1;
          Alcotest.test_case "bench-micro/v3 parses like golden" `Quick
            test_micro_json_parses_like_golden;
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
        [ Alcotest.test_case "render" `Quick test_render_deterministic ] );
    ]
