module Table = Bft_util.Table
module Engine = Bft_sim.Engine
module Monitor = Bft_trace.Monitor

(* A BFS replica's 512 MB also hold the last checkpoint snapshot, the
   message log and protocol buffers, so the file cache it can offer the
   service is markedly smaller than the unreplicated server's. This is the
   memory-pressure asymmetry behind Andrew500 (1 GB of data on 512 MB
   machines). *)
let bfs_cache_fraction = 0.62

let params_for ?(mem = Bft_nfs.Nfs_service.default_params.Bft_nfs.Nfs_service.mem_bytes)
    backend =
  let mem_bytes =
    match backend with
    | Nfs_rig.Bfs -> int_of_float (bfs_cache_fraction *. float_of_int mem)
    | Nfs_rig.Norep_fs | Nfs_rig.Nfs_std_fs -> mem
  in
  { Bft_nfs.Nfs_service.default_params with Bft_nfs.Nfs_service.mem_bytes }

type observed = {
  ob_backend : Nfs_rig.backend;
  ob_elapsed : float;
  ob_calls : int;
  ob_phases : (string * float) list;
  ob_profile : Bft_trace.Profile.t;
  ob_monitor : Monitor.t;
}

let run ?params backend steps =
  let monitor = Monitor.create () in
  let rig = Nfs_rig.make ?params ~monitor backend () in
  let result = ref None in
  let phases = ref [] in
  let engine = Nfs_rig.engine rig in
  Nfs_rig.run rig
    ~on_phase:(fun ~name ~elapsed ->
      if name <> "start" then phases := (name, elapsed) :: !phases)
    ~on_done:(fun ~elapsed ~calls ->
      result := Some (elapsed, calls);
      Engine.stop engine)
    steps;
  (* Generous bound; the run stops itself when the stream completes. *)
  Engine.run ~until:1e7 engine;
  match !result with
  | Some (elapsed, calls) ->
    {
      ob_backend = backend;
      ob_elapsed = elapsed;
      ob_calls = calls;
      ob_phases = List.rev !phases;
      ob_profile = Nfs_rig.profile rig;
      ob_monitor = monitor;
    }
  | None -> failwith "file-system benchmark did not complete"

let run_andrew ?client_mem ?server_mem ~n backend =
  let profile = Andrew.andrew ~n in
  let profile =
    match client_mem with
    | Some m -> { profile with Andrew.client_mem = m }
    | None -> profile
  in
  run
    ~params:(params_for ?mem:server_mem backend)
    backend (Andrew.generate profile)

let run_postmark ~files ~transactions backend =
  let steps, txns = Postmark.generate (Postmark.scaled ~files ~transactions) in
  (run backend steps, txns)

let ratio a b = if b > 0.0 then a /. b else nan

let fig8 ?(quick = false) () =
  let small, large = if quick then (3, 10) else (100, 500) in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Modified Andrew elapsed time (s), n=%d and n=%d" small large)
      ~columns:
        [
          ("benchmark", Table.Left);
          ("BFS s", Table.Right);
          ("NO-REP s", Table.Right);
          ("NFS-STD s", Table.Right);
          ("BFS/NO-REP", Table.Right);
          ("BFS/NFS-STD", Table.Right);
        ]
  in
  (* In quick mode the data set is tiny, so shrink the modeled client cache
     to preserve the fits-in-memory / does-not distinction of 100 vs 500. *)
  let client_mem = if quick then Some (8 * 1024 * 1024) else None in
  let server_mem = if quick then Some (8 * 1024 * 1024) else None in
  let phase_table =
    Table.create
      ~title:(Printf.sprintf "Andrew%d phase breakdown (s)" small)
      ~columns:
        [
          ("phase", Table.Left);
          ("BFS", Table.Right);
          ("NO-REP", Table.Right);
          ("NFS-STD", Table.Right);
        ]
  in
  let phase_rows = Hashtbl.create 8 in
  let run_row ~record_phases n =
    let run backend =
      let ob = run_andrew ?client_mem ?server_mem ~n backend in
      if record_phases then
        List.iter
          (fun (name, t) ->
            let row =
              match Hashtbl.find_opt phase_rows name with
              | Some r -> r
              | None ->
                let r = Hashtbl.create 3 in
                Hashtbl.replace phase_rows name r;
                r
            in
            Hashtbl.replace row (Nfs_rig.backend_name backend) t)
          ob.ob_phases;
      ob.ob_elapsed
    in
    let bfs = run Nfs_rig.Bfs in
    let norep = run Nfs_rig.Norep_fs in
    let std = run Nfs_rig.Nfs_std_fs in
    Table.add_row table
      [
        Printf.sprintf "Andrew%d" n;
        Table.cell_f ~decimals:1 bfs;
        Table.cell_f ~decimals:1 norep;
        Table.cell_f ~decimals:1 std;
        Table.cell_f ~decimals:2 (ratio bfs norep);
        Table.cell_f ~decimals:2 (ratio bfs std);
      ];
    (ratio bfs norep, ratio bfs std)
  in
  let (r100_norep, r100_std) = run_row ~record_phases:true small in
  let (r500_norep, r500_std) = run_row ~record_phases:false large in
  List.iter
    (fun name ->
      match Hashtbl.find_opt phase_rows name with
      | Some row ->
        let cell backend =
          match Hashtbl.find_opt row backend with
          | Some t -> Table.cell_f ~decimals:1 t
          | None -> "-"
        in
        Table.add_row phase_table
          [ name; cell "BFS"; cell "NO-REP"; cell "NFS-STD" ]
      | None -> ())
    Andrew.phase_names;
  [
    {
      Report.id = "fig8";
      title = "Modified Andrew (phase breakdown)";
      table = phase_table;
      anchors = [];
    };
    {
      Report.id = "fig8";
      title = "Modified Andrew";
      table;
      anchors =
        [
          Report.ratio_anchor
            ~description:
              (Printf.sprintf "Andrew%d: BFS vs NO-REP (paper +14%%)" small)
            ~paper_ratio:1.14 ~measured:r100_norep ~tolerance:0.08;
          Report.ratio_anchor
            ~description:
              (Printf.sprintf "Andrew%d: BFS vs NFS-STD (paper +15%%)" small)
            ~paper_ratio:1.15 ~measured:r100_std ~tolerance:0.08;
          Report.ratio_anchor
            ~description:
              (Printf.sprintf "Andrew%d: BFS vs NO-REP (paper +22%%)" large)
            ~paper_ratio:1.22 ~measured:r500_norep ~tolerance:0.08;
          Report.ratio_anchor
            ~description:
              (Printf.sprintf "Andrew%d: BFS vs NFS-STD (paper +24%%)" large)
            ~paper_ratio:1.24 ~measured:r500_std ~tolerance:0.08;
          Report.direction_anchor
            ~description:"overhead grows from Andrew-small to Andrew-large"
            ~paper:"14% -> 22%" ~holds:(r500_norep > r100_norep)
            ~measured:(Printf.sprintf "%.2f -> %.2f" r100_norep r500_norep);
        ];
    };
  ]

let fig9 ?(quick = false) () =
  let files, txns = if quick then (100, 300) else (1000, 5000) in
  let tps backend =
    let ob, n = run_postmark ~files ~transactions:txns backend in
    float_of_int n /. ob.ob_elapsed
  in
  let bfs = tps Nfs_rig.Bfs in
  let norep = tps Nfs_rig.Norep_fs in
  let std = tps Nfs_rig.Nfs_std_fs in
  let table =
    Table.create ~title:"PostMark transactions per second"
      ~columns:
        [
          ("system", Table.Left);
          ("txn/s", Table.Right);
          ("vs NO-REP", Table.Right);
        ]
  in
  Table.add_row table
    [ "BFS"; Table.cell_f ~decimals:0 bfs; Table.cell_pct (ratio bfs norep -. 1.0) ];
  Table.add_row table [ "NO-REP"; Table.cell_f ~decimals:0 norep; "-" ];
  Table.add_row table
    [
      "NFS-STD"; Table.cell_f ~decimals:0 std; Table.cell_pct (ratio std norep -. 1.0);
    ];
  [
    {
      Report.id = "fig9";
      title = "PostMark";
      table;
      anchors =
        [
          Report.ratio_anchor
            ~description:"BFS throughput vs NO-REP (paper -47%)"
            ~paper_ratio:0.53 ~measured:(ratio bfs norep) ~tolerance:0.15;
          Report.ratio_anchor
            ~description:"BFS throughput vs NFS-STD (paper -13%)"
            ~paper_ratio:0.87 ~measured:(ratio bfs std) ~tolerance:0.12;
          Report.direction_anchor
            ~description:"NFS-STD sits between NO-REP and BFS (extra disk accesses)"
            ~paper:"NO-REP > NFS-STD > BFS"
            ~holds:(norep > std && std > bfs)
            ~measured:(Printf.sprintf "%.0f > %.0f > %.0f" norep std bfs);
        ];
    };
  ]

let all ?(quick = false) () = List.concat [ fig8 ~quick (); fig9 ~quick () ]
