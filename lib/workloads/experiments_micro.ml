module Config = Bft_core.Config
module Table = Bft_util.Table

let us v = Table.cell_f ~decimals:1 (v *. 1e6)

let ratio a b = if b > 0.0 then a /. b else nan

(* Read-write throughput of two configurations over a client sweep: one
   row per client count, and the peak of each configuration. *)
let throughput_pair ~title (label_a, cfg_a) (label_b, cfg_b) ~arg ~res clients =
  let table =
    Table.create ~title
      ~columns:
        [
          ("clients", Table.Right);
          (label_a ^ " ops/s", Table.Right);
          (label_b ^ " ops/s", Table.Right);
        ]
  in
  let peak_a = ref 0.0 and peak_b = ref 0.0 in
  List.iter
    (fun n ->
      let run config =
        (Microbench.bft_throughput ~config ~arg ~res ~read_only:false ~clients:n ())
          .Microbench.ops_per_sec
      in
      let a = run cfg_a in
      let b = run cfg_b in
      peak_a := Float.max !peak_a a;
      peak_b := Float.max !peak_b b;
      Table.add_row table
        [ Table.cell_i n; Table.cell_f ~decimals:0 a; Table.cell_f ~decimals:0 b ])
    clients;
  (table, !peak_a, !peak_b)

(* Read-write latency of two configurations over a size sweep: one row
   per size ([shape] maps it to the argument and result sizes) with a
   comparison column, [cmp a b] rendered by [cell]. Returns the table and
   the comparison values in sweep order. *)
let latency_pair ~title ~column (label_a, cfg_a) (label_b, cfg_b) ~ops ~shape
    (cmp_label, cmp, cell) sizes =
  let table =
    Table.create ~title
      ~columns:
        (List.map
           (fun c -> (c, Table.Right))
           [ column; label_a ^ " us"; label_b ^ " us"; cmp_label ])
  in
  let run size config =
    let arg, res = shape size in
    (Microbench.bft_latency ~config ~ops ~arg ~res ~read_only:false ())
      .Microbench.mean
  in
  let values =
    List.map
      (fun size ->
        let a = run size cfg_a in
        let b = run size cfg_b in
        Table.add_row table [ Table.cell_i size; us a; us b; cell (cmp a b) ];
        cmp a b)
      sizes
  in
  (table, values)

(* --- fig2: latency vs result size -------------------------------------- *)

let fig2 ?(quick = false) () =
  let sizes = if quick then [ 0; 4096 ] else [ 0; 256; 1024; 2048; 4096; 8192 ] in
  let ops = if quick then 30 else 150 in
  let table =
    Table.create ~title:"Latency vs result size (argument 8 B, f=1)"
      ~columns:
        [
          ("result B", Table.Right);
          ("BFT-RW us", Table.Right);
          ("BFT-RO us", Table.Right);
          ("NO-REP us", Table.Right);
          ("slowdown RW", Table.Right);
          ("slowdown RO", Table.Right);
        ]
  in
  let last_slow_rw = ref nan and last_slow_ro = ref nan in
  let first_slow_rw = ref nan in
  List.iter
    (fun res ->
      let rw = Microbench.bft_latency ~ops ~arg:8 ~res ~read_only:false () in
      let ro = Microbench.bft_latency ~ops ~arg:8 ~res ~read_only:true () in
      let nr = Microbench.norep_latency ~ops ~arg:8 ~res () in
      let srw = ratio rw.Microbench.mean nr.Microbench.mean in
      let sro = ratio ro.Microbench.mean nr.Microbench.mean in
      if Float.is_nan !first_slow_rw then first_slow_rw := srw;
      last_slow_rw := srw;
      last_slow_ro := sro;
      Table.add_row table
        [
          Table.cell_i res;
          us rw.Microbench.mean;
          us ro.Microbench.mean;
          us nr.Microbench.mean;
          Table.cell_f ~decimals:2 srw;
          Table.cell_f ~decimals:2 sro;
        ])
    sizes;
  [
    {
      Report.id = "fig2";
      title = "Latency with and without BFT";
      table;
      anchors =
        [
          Report.ratio_anchor
            ~description:"slowdown decreases to an asymptote near 1.26"
            ~paper_ratio:1.26 ~measured:!last_slow_rw ~tolerance:0.15;
          Report.direction_anchor
            ~description:"slowdown decreases quickly as result size grows"
            ~paper:"monotone decrease"
            ~holds:(!first_slow_rw > !last_slow_rw +. 0.5)
            ~measured:
              (Printf.sprintf "%.2f -> %.2f" !first_slow_rw !last_slow_rw);
          Report.direction_anchor
            ~description:"read-only is faster than read-write"
            ~paper:"RO < RW" ~holds:(!last_slow_ro < !last_slow_rw)
            ~measured:(Printf.sprintf "RO %.2f vs RW %.2f" !last_slow_ro !last_slow_rw);
        ];
    };
  ]

(* --- fig3: latency, f=1 vs f=2 ------------------------------------------ *)

let fig3 ?(quick = false) () =
  let sizes = if quick then [ 8; 4096 ] else [ 8; 1024; 2048; 4096; 8192 ] in
  let ops = if quick then 30 else 150 in
  let cfg1 = Config.make ~f:1 () and cfg2 = Config.make ~f:2 () in
  let table =
    Table.create ~title:"Latency vs argument size: f=1 (4 replicas) vs f=2 (7 replicas)"
      ~columns:
        [
          ("arg B", Table.Right);
          ("RW f=1 us", Table.Right);
          ("RW f=2 us", Table.Right);
          ("RW f2/f1", Table.Right);
          ("RO f=1 us", Table.Right);
          ("RO f=2 us", Table.Right);
          ("RO f2/f1", Table.Right);
        ]
  in
  let max_rw = ref 0.0 and max_ro = ref 0.0 in
  let first_rw = ref nan and last_rw = ref nan in
  List.iter
    (fun arg ->
      let rw1 = Microbench.bft_latency ~config:cfg1 ~ops ~arg ~res:8 ~read_only:false () in
      let rw2 = Microbench.bft_latency ~config:cfg2 ~ops ~arg ~res:8 ~read_only:false () in
      let ro1 = Microbench.bft_latency ~config:cfg1 ~ops ~arg ~res:8 ~read_only:true () in
      let ro2 = Microbench.bft_latency ~config:cfg2 ~ops ~arg ~res:8 ~read_only:true () in
      let r_rw = ratio rw2.Microbench.mean rw1.Microbench.mean in
      let r_ro = ratio ro2.Microbench.mean ro1.Microbench.mean in
      if Float.is_nan !first_rw then first_rw := r_rw;
      last_rw := r_rw;
      max_rw := Float.max !max_rw r_rw;
      max_ro := Float.max !max_ro r_ro;
      Table.add_row table
        [
          Table.cell_i arg;
          us rw1.Microbench.mean;
          us rw2.Microbench.mean;
          Table.cell_f ~decimals:2 r_rw;
          us ro1.Microbench.mean;
          us ro2.Microbench.mean;
          Table.cell_f ~decimals:2 r_ro;
        ])
    sizes;
  [
    {
      Report.id = "fig3";
      title = "Latency with f=2 and with f=1";
      table;
      anchors =
        [
          Report.ratio_anchor
            ~description:"max slowdown from 7 replicas, read-write (paper 1.30)"
            ~paper_ratio:1.30 ~measured:!max_rw ~tolerance:0.2;
          Report.ratio_anchor
            ~description:"max slowdown from 7 replicas, read-only (paper 1.26)"
            ~paper_ratio:1.26 ~measured:!max_ro ~tolerance:0.2;
          Report.direction_anchor
            ~description:"slowdown decreases as sizes increase"
            ~paper:"decreasing" ~holds:(!last_rw <= !first_rw +. 0.02)
            ~measured:(Printf.sprintf "%.2f -> %.2f" !first_rw !last_rw);
        ];
    };
  ]

(* --- fig4: throughput vs clients ----------------------------------------- *)

let client_grid quick =
  if quick then [ 10; 50 ] else [ 1; 5; 10; 20; 40; 70; 100; 150; 200 ]

let throughput_table ~title ~quick ~arg ~res ~norep_clients_cap ~norep_retry =
  let clients = client_grid quick in
  let table =
    Table.create ~title
      ~columns:
        [
          ("clients", Table.Right);
          ("BFT-RW ops/s", Table.Right);
          ("BFT-RO ops/s", Table.Right);
          ("NO-REP ops/s", Table.Right);
        ]
  in
  let peak = ref (0.0, 0.0, 0.0) in
  List.iter
    (fun n ->
      let rw = Microbench.bft_throughput ~arg ~res ~read_only:false ~clients:n () in
      let ro = Microbench.bft_throughput ~arg ~res ~read_only:true ~clients:n () in
      let nr =
        if n <= norep_clients_cap then
          Some (Microbench.norep_throughput ~retry:norep_retry ~arg ~res ~clients:n ())
        else None
      in
      let prw, pro, pnr = !peak in
      peak :=
        ( Float.max prw rw.Microbench.ops_per_sec,
          Float.max pro ro.Microbench.ops_per_sec,
          (match nr with
          | Some nr when not (Float.is_nan nr.Microbench.ops_per_sec) ->
            Float.max pnr nr.Microbench.ops_per_sec
          | _ -> pnr) );
      Table.add_row table
        [
          Table.cell_i n;
          Table.cell_f ~decimals:0 rw.Microbench.ops_per_sec;
          Table.cell_f ~decimals:0 ro.Microbench.ops_per_sec;
          (match nr with
          | None -> "-"
          | Some nr -> Table.cell_f ~decimals:0 nr.Microbench.ops_per_sec);
        ])
    clients;
  (table, !peak)

let fig4 ?(quick = false) () =
  let t00, (rw00, ro00, nr00) =
    throughput_table ~title:"Throughput, operation 0/0" ~quick ~arg:0 ~res:0
      ~norep_clients_cap:200 ~norep_retry:true
  in
  let t04, (rw04, ro04, nr04) =
    throughput_table ~title:"Throughput, operation 0/4" ~quick ~arg:0 ~res:4096
      ~norep_clients_cap:200 ~norep_retry:true
  in
  let t40, (rw40, ro40, nr40) =
    throughput_table ~title:"Throughput, operation 4/0" ~quick ~arg:4096 ~res:0
      ~norep_clients_cap:60 ~norep_retry:false
  in
  [
    {
      Report.id = "fig4";
      title = "Throughput for operations 0/0, 0/4 and 4/0";
      table = t00;
      anchors =
        [
          Report.direction_anchor
            ~description:"0/0: NO-REP beats BFT (CPU-bound, extra crypto+messages)"
            ~paper:"NO-REP > BFT"
            ~holds:(nr00 > rw00 && nr00 > ro00)
            ~measured:
              (Printf.sprintf "NO-REP %.0f vs RW %.0f / RO %.0f" nr00 rw00 ro00);
          Report.direction_anchor
            ~description:"0/0: read-only beats read-write (no batch preparation)"
            ~paper:"RO > RW" ~holds:(ro00 > rw00)
            ~measured:(Printf.sprintf "RO %.0f vs RW %.0f" ro00 rw00);
        ];
    };
    {
      Report.id = "fig4";
      title = "Throughput 0/4 (digest replies beat the server link)";
      table = t04;
      anchors =
        [
          Report.ratio_anchor ~description:"0/4 BFT-RW peak (paper 6625 ops/s)"
            ~paper_ratio:6625.0 ~measured:rw04 ~tolerance:0.2;
          Report.ratio_anchor ~description:"0/4 BFT-RO peak (paper 8987 ops/s)"
            ~paper_ratio:8987.0 ~measured:ro04 ~tolerance:0.2;
          Report.ratio_anchor
            ~description:"0/4 NO-REP capped by its link (paper ~3000 ops/s)"
            ~paper_ratio:3000.0 ~measured:nr04 ~tolerance:0.1;
        ];
    };
    {
      Report.id = "fig4";
      title = "Throughput 4/0 (request transmission bound)";
      table = t40;
      anchors =
        [
          Report.ratio_anchor ~description:"4/0 NO-REP peak (paper 2921 ops/s)"
            ~paper_ratio:2921.0 ~measured:nr40 ~tolerance:0.1;
          Report.ratio_anchor
            ~description:"4/0 BFT-RW within 11% of NO-REP (paper ~2600)"
            ~paper_ratio:2600.0 ~measured:rw40 ~tolerance:0.1;
          Report.ratio_anchor
            ~description:"4/0 BFT-RO within 2% of NO-REP (paper ~2863)"
            ~paper_ratio:2863.0 ~measured:ro40 ~tolerance:0.1;
        ];
    };
  ]

(* --- fig5: digest replies ------------------------------------------------ *)

let fig5 ?(quick = false) () =
  let cfg = Config.make ~f:1 () in
  let cfg_ndr = Config.make ~f:1 ~digest_replies:false () in
  let sizes = if quick then [ 0; 4096 ] else [ 0; 1024; 4096; 8192 ] in
  let ops = if quick then 30 else 150 in
  let lat, ratios =
    latency_pair ~title:"Latency vs result size: BFT vs BFT-NDR (no digest replies)"
      ~column:"result B" ("BFT", cfg) ("BFT-NDR", cfg_ndr) ~ops
      ~shape:(fun res -> (8, res))
      ("NDR/BFT", (fun b n -> ratio n b), Table.cell_f ~decimals:2)
      sizes
  in
  let last_lat_ratio = List.nth ratios (List.length ratios - 1) in
  let thr, peak_b, peak_n =
    throughput_pair ~title:"Throughput 0/4: BFT vs BFT-NDR" ("BFT", cfg)
      ("BFT-NDR", cfg_ndr) ~arg:0 ~res:4096
      (if quick then [ 20 ] else [ 10; 30; 60; 100; 150 ])
  in
  [
    {
      Report.id = "fig5";
      title = "Digest replies optimization (latency)";
      table = lat;
      anchors =
        [
          Report.direction_anchor
            ~description:"digest replies cut large-result latency significantly"
            ~paper:"NDR slower, gap grows with result size"
            ~holds:(last_lat_ratio > 1.2)
            ~measured:(Printf.sprintf "NDR/BFT = %.2f at 8 KB" last_lat_ratio);
        ];
    };
    {
      Report.id = "fig5";
      title = "Digest replies optimization (throughput 0/4)";
      table = thr;
      anchors =
        [
          Report.ratio_anchor
            ~description:"BFT up to ~3x BFT-NDR throughput (paper: up to 3x)"
            ~paper_ratio:3.0 ~measured:(ratio peak_b peak_n) ~tolerance:0.4;
          Report.ratio_anchor
            ~description:"BFT-NDR capped by reply bandwidth (paper: <= ~3000)"
            ~paper_ratio:3000.0 ~measured:peak_n ~tolerance:0.15;
        ];
    };
  ]

(* --- fig6: request batching ---------------------------------------------- *)

let fig6 ?(quick = false) () =
  let cfg = Config.make ~f:1 () in
  let cfg_nb = Config.make ~f:1 ~batching:false () in
  let table, peak_b, peak_n =
    throughput_pair ~title:"Throughput 0/0 read-write: batching vs no batching"
      ("batching", cfg) ("no batching", cfg_nb) ~arg:0 ~res:0
      (if quick then [ 5; 30 ] else [ 1; 5; 10; 20; 40; 70; 100; 150; 200 ])
  in
  [
    {
      Report.id = "fig6";
      title = "Request batching optimization";
      table;
      anchors =
        [
          Report.direction_anchor
            ~description:
              "without batching the replicas' CPUs saturate at a small client \
               count, far below the batching peak"
            ~paper:"batching >> no-batching under load"
            ~holds:(peak_b > 1.5 *. peak_n)
            ~measured:(Printf.sprintf "%.0f vs %.0f" peak_b peak_n);
        ];
    };
  ]

(* --- fig7: separate request transmission --------------------------------- *)

let fig7 ?(quick = false) () =
  let cfg = Config.make ~f:1 () in
  let cfg_nosrt = Config.make ~f:1 ~separate_request_transmission:false () in
  let sizes = if quick then [ 4096 ] else [ 256; 1024; 4096; 8192 ] in
  let ops = if quick then 30 else 150 in
  let lat, cuts =
    latency_pair ~title:"Latency vs argument size: SRT vs no SRT" ~column:"arg B"
      ("SRT", cfg) ("no-SRT", cfg_nosrt) ~ops
      ~shape:(fun arg -> (arg, 8))
      ("reduction", (fun s n -> 1.0 -. ratio s n), Table.cell_pct)
      sizes
  in
  let best_cut = List.fold_left Float.max 0.0 cuts in
  let thr, peak_s, peak_n =
    throughput_pair ~title:"Throughput 4/0 read-write: SRT vs no SRT"
      ("SRT", cfg) ("no-SRT", cfg_nosrt) ~arg:4096 ~res:0
      (if quick then [ 20 ] else [ 5; 15; 30; 50 ])
  in
  [
    {
      Report.id = "fig7";
      title = "Separate request transmission (latency)";
      table = lat;
      anchors =
        [
          Report.ratio_anchor
            ~description:"latency reduction up to ~40% for large arguments"
            ~paper_ratio:0.40 ~measured:best_cut ~tolerance:0.5;
        ];
    };
    {
      Report.id = "fig7";
      title = "Separate request transmission (throughput 4/0)";
      table = thr;
      anchors =
        [
          Report.direction_anchor
            ~description:"SRT improves large-request throughput (bigger batches)"
            ~paper:"SRT > no-SRT" ~holds:(peak_s > peak_n)
            ~measured:(Printf.sprintf "%.0f vs %.0f" peak_s peak_n);
        ];
    };
  ]

(* --- tentative execution -------------------------------------------------- *)

let tentative ?(quick = false) () =
  let cfg = Config.make ~f:1 () in
  let cfg_nt = Config.make ~f:1 ~tentative_execution:false () in
  let ops = if quick then 30 else 200 in
  let l = Microbench.bft_latency ~config:cfg ~ops ~arg:8 ~res:8 ~read_only:false () in
  let ln = Microbench.bft_latency ~config:cfg_nt ~ops ~arg:8 ~res:8 ~read_only:false () in
  let clients = if quick then 20 else 100 in
  let th = Microbench.bft_throughput ~config:cfg ~arg:0 ~res:0 ~read_only:false ~clients () in
  let thn =
    Microbench.bft_throughput ~config:cfg_nt ~arg:0 ~res:0 ~read_only:false ~clients ()
  in
  let cut = 1.0 -. ratio l.Microbench.mean ln.Microbench.mean in
  let thr_delta =
    ratio th.Microbench.ops_per_sec thn.Microbench.ops_per_sec -. 1.0
  in
  let table =
    Table.create ~title:"Tentative execution on/off"
      ~columns:[ ("metric", Table.Left); ("on", Table.Right); ("off", Table.Right) ]
  in
  Table.add_row table [ "latency 0/0 (us)"; us l.Microbench.mean; us ln.Microbench.mean ];
  Table.add_row table
    [
      Printf.sprintf "throughput 0/0 @%d clients (ops/s)" clients;
      Table.cell_f ~decimals:0 th.Microbench.ops_per_sec;
      Table.cell_f ~decimals:0 thn.Microbench.ops_per_sec;
    ];
  [
    {
      Report.id = "tentative";
      title = "Tentative execution optimization";
      table;
      anchors =
        [
          Report.ratio_anchor
            ~description:"latency reduction for small ops (paper: up to 27%)"
            ~paper_ratio:0.27 ~measured:cut ~tolerance:0.6;
          Report.direction_anchor
            ~description:"throughput impact is insignificant"
            ~paper:"~0%" ~holds:(Float.abs thr_delta < 0.1)
            ~measured:(Table.cell_pct thr_delta);
        ];
    };
  ]

(* --- piggybacked commits --------------------------------------------------- *)

let piggyback ?(quick = false) () =
  let cfg = Config.make ~f:1 () in
  let cfg_pb = Config.make ~f:1 ~piggyback_commits:true () in
  let run clients config =
    (Microbench.bft_throughput ~config ~arg:0 ~res:0 ~read_only:false ~clients ())
      .Microbench.ops_per_sec
  in
  let small = if quick then 5 else 5 and large = if quick then 30 else 200 in
  let base_small = run small cfg and pb_small = run small cfg_pb in
  let base_large = run large cfg and pb_large = run large cfg_pb in
  let gain_small = ratio pb_small base_small -. 1.0 in
  let gain_large = ratio pb_large base_large -. 1.0 in
  let table =
    Table.create ~title:"Piggybacked commits: throughput 0/0 read-write"
      ~columns:
        [
          ("clients", Table.Right);
          ("separate commits", Table.Right);
          ("piggybacked", Table.Right);
          ("gain", Table.Right);
        ]
  in
  Table.add_row table
    [
      Table.cell_i small;
      Table.cell_f ~decimals:0 base_small;
      Table.cell_f ~decimals:0 pb_small;
      Table.cell_pct gain_small;
    ];
  Table.add_row table
    [
      Table.cell_i large;
      Table.cell_f ~decimals:0 base_large;
      Table.cell_f ~decimals:0 pb_large;
      Table.cell_pct gain_large;
    ];
  [
    {
      Report.id = "piggyback";
      title = "Piggybacked commits";
      table;
      anchors =
        [
          Report.direction_anchor
            ~description:
              "gain is large with few clients and fades under load as batching \
               amortizes commit processing (paper: +33% @5, +3% @200)"
            ~paper:"+33% @5 clients, +3% @200"
            ~holds:
              (gain_small > 0.05 && gain_large >= -0.05 && gain_large < gain_small)
            ~measured:
              (Printf.sprintf "%s @%d, %s @%d" (Table.cell_pct gain_small) small
                 (Table.cell_pct gain_large) large);
        ];
    };
  ]

let all ?(quick = false) () =
  List.concat
    [
      fig2 ~quick ();
      fig3 ~quick ();
      fig4 ~quick ();
      fig5 ~quick ();
      fig6 ~quick ();
      fig7 ~quick ();
      tentative ~quick ();
      piggyback ~quick ();
    ]
