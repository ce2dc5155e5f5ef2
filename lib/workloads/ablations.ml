module Config = Bft_core.Config
module Table = Bft_util.Table

let us v = Table.cell_f ~decimals:1 (v *. 1e6)

let signatures ?(quick = false) () =
  let ops = if quick then 10 else 50 in
  let cfg_mac = Config.make ~f:1 () in
  let cfg_pk =
    (* Signatures are so slow that timeouts must stretch accordingly. *)
    Config.make ~f:1 ~public_key_signatures:true ~client_retry_timeout:3.0
      ~view_change_timeout:6.0 ()
  in
  let mac = Microbench.bft_latency ~config:cfg_mac ~ops ~arg:8 ~res:8 ~read_only:false () in
  let pk = Microbench.bft_latency ~config:cfg_pk ~ops ~arg:8 ~res:8 ~read_only:false () in
  let mac_t =
    Microbench.bft_throughput ~config:cfg_mac ~arg:0 ~res:0 ~read_only:false
      ~clients:(if quick then 10 else 50) ()
  in
  let pk_t =
    Microbench.bft_throughput ~config:cfg_pk ~arg:0 ~res:0 ~read_only:false
      ~clients:(if quick then 10 else 50)
      ~warmup:2.0 ~window:(if quick then 2.0 else 4.0) ()
  in
  let table =
    Table.create ~title:"MAC vectors vs 1024-bit public-key signatures"
      ~columns:
        [ ("metric", Table.Left); ("MACs", Table.Right); ("signatures", Table.Right) ]
  in
  Table.add_row table
    [ "latency 0/0 (us)"; us mac.Microbench.mean; us pk.Microbench.mean ];
  Table.add_row table
    [
      "throughput 0/0 (ops/s)";
      Table.cell_f ~decimals:0 mac_t.Microbench.ops_per_sec;
      Table.cell_f ~decimals:0 pk_t.Microbench.ops_per_sec;
    ];
  [
    {
      Report.id = "ablation-sigs";
      title = "Why symmetric cryptography matters";
      table;
      anchors =
        [
          Report.direction_anchor
            ~description:
              "signatures push latency into the Rampart regime the paper \
               contrasts against (two orders of magnitude)"
            ~paper:"BFT >> signature-based systems"
            ~holds:(pk.Microbench.mean > 50.0 *. mac.Microbench.mean)
            ~measured:
              (Printf.sprintf "%.0fx slower" (pk.Microbench.mean /. mac.Microbench.mean));
        ];
    };
  ]

(* One parameter sweep: each value's [Config] through the 0/0 read-write
   latency and throughput micro-benchmarks, one table row per value. *)
let config_sweep ~quick ~id ~title ~table_title ~col ~values config =
  let table =
    Table.create ~title:table_title
      ~columns:
        [ (col, Table.Right); ("latency us", Table.Right); ("ops/s", Table.Right) ]
  in
  List.iter
    (fun v ->
      let config = config v in
      let lat =
        (Microbench.bft_latency ~config ~ops:(if quick then 10 else 60) ~arg:8
           ~res:8 ~read_only:false ())
          .Microbench.mean
      in
      let thr =
        (Microbench.bft_throughput ~config ~arg:0 ~res:0 ~read_only:false
           ~clients:(if quick then 10 else 100) ())
          .Microbench.ops_per_sec
      in
      Table.add_row table
        [ Table.cell_i v; us lat; Table.cell_f ~decimals:0 thr ])
    values;
  [ { Report.id; title; table; anchors = [] } ]

(* Proactive recovery: the paper's Section 2 mechanism, measured. The
   benchmarks of the paper ran with no proactive recoveries; this ablation
   shows what a live rotation costs. *)
let recovery ?(quick = false) () =
  let open Bft_core in
  let run period_opt =
    let config = Config.make ~f:1 ~checkpoint_interval:32 ~log_window:64 () in
    let cluster = Cluster.create ~config ~service:(fun _ -> Service.null ()) () in
    let clients =
      List.init (if quick then 10 else 50) (fun _ -> Cluster.add_client cluster)
    in
    let op = Service.null_op ~read_only:false ~arg_size:0 ~result_size:0 in
    List.iter
      (fun c ->
        let rec loop () = Client.invoke c op (fun _ -> loop ()) in
        loop ())
      clients;
    let scheduler =
      Option.map
        (fun period ->
          Recovery_scheduler.start ~engine:(Cluster.engine cluster)
            ~replicas:(Cluster.replicas cluster) ~period)
        period_opt
    in
    let window = if quick then 0.6 else 2.0 in
    let completed, _stalled =
      Microbench.measure_window (Cluster.engine cluster) ~warmup:0.4 ~window
        (fun () ->
          List.map (fun c -> Client.count c Client.Completed) clients)
    in
    let recoveries =
      match scheduler with
      | Some s ->
        Recovery_scheduler.stop s;
        Recovery_scheduler.recoveries_started s
      | None -> 0
    in
    (float_of_int completed /. window, recoveries)
  in
  let table =
    Table.create ~title:"Proactive recovery rotation vs throughput (0/0, 50 clients)"
      ~columns:
        [
          ("rotation period", Table.Left);
          ("ops/s", Table.Right);
          ("recoveries", Table.Right);
        ]
  in
  let baseline, _ = run None in
  Table.add_row table [ "off (as benchmarked in the paper)";
                        Table.cell_f ~decimals:0 baseline; "0" ];
  let degradations =
    List.map
      (fun period ->
        let thr, recs = run (Some period) in
        Table.add_row table
          [
            Printf.sprintf "%.1f s (window of vulnerability %.1f s)" period
              (2.0 *. period);
            Table.cell_f ~decimals:0 thr;
            Table.cell_i recs;
          ];
        thr /. baseline)
      (if quick then [ 1.0 ] else [ 4.0; 1.0 ])
  in
  [
    {
      Report.id = "ablation-recovery";
      title = "Proactive recovery";
      table;
      anchors =
        [
          Report.direction_anchor
            ~description:
              "staggered recovery costs little throughput at moderate periods"
            ~paper:"(not benchmarked in the paper)"
            ~holds:
              ((* judge the moderate (first) period; aggressive rotations
                  are expected to cost real throughput *)
               match degradations with
               | moderate :: _ -> moderate > if quick then 0.3 else 0.6
               | [] -> false)
            ~measured:
              (String.concat ", "
                 (List.map (fun r -> Printf.sprintf "%.0f%%" (100.0 *. r)) degradations));
        ];
    };
  ]

let all ?(quick = false) () =
  List.concat
    [
      signatures ~quick ();
      config_sweep ~quick ~id:"ablation-checkpoint"
        ~title:"Checkpoint interval K"
        ~table_title:"Checkpoint interval sweep (0/0 read-write)" ~col:"K"
        ~values:(if quick then [ 128 ] else [ 16; 64; 128; 512 ])
        (fun k -> Config.make ~f:1 ~checkpoint_interval:k ~log_window:(4 * k) ());
      config_sweep ~quick ~id:"ablation-batch" ~title:"Batch size bound"
        ~table_title:"Max requests per batch (0/0 read-write)" ~col:"bound"
        ~values:(if quick then [ 16 ] else [ 1; 4; 16; 64 ])
        (fun b -> Config.make ~f:1 ~max_batch_requests:b ());
      config_sweep ~quick ~id:"ablation-window" ~title:"Sliding window W"
        ~table_title:"Batches in flight, W (0/0 read-write)" ~col:"W"
        ~values:(if quick then [ 1 ] else [ 1; 2; 4; 8 ])
        (fun w -> Config.make ~f:1 ~batch_window:w ());
      recovery ~quick ();
    ]
