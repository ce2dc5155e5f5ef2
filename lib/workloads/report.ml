module Table = Bft_util.Table

type anchor = {
  description : string;
  paper : string;
  measured : string;
  ok : bool;
}

type section = {
  id : string;
  title : string;
  table : Table.t;
  anchors : anchor list;
}

let print section =
  Printf.printf "\n### %s — %s\n\n" section.id section.title;
  Table.print section.table;
  if section.anchors <> [] then begin
    Printf.printf "\nPaper anchors:\n";
    List.iter
      (fun a ->
        Printf.printf "  [%s] %s: paper %s, measured %s\n"
          (if a.ok then "ok" else "??")
          a.description a.paper a.measured)
      section.anchors
  end;
  flush stdout

let ratio_anchor ~description ~paper_ratio ~measured ~tolerance =
  let ok =
    (not (Float.is_nan measured))
    && Float.abs (measured -. paper_ratio) <= tolerance *. Float.abs paper_ratio
  in
  {
    description;
    paper = Printf.sprintf "%.2f" paper_ratio;
    measured = (if Float.is_nan measured then "-" else Printf.sprintf "%.2f" measured);
    ok;
  }

let direction_anchor ~description ~paper ~holds ~measured =
  { description; paper; measured; ok = holds }

let breakdown_section (tl : Bft_trace.Timeline.t) =
  let id = "trace" and title = "Per-phase latency breakdown" in
  let module Stats = Bft_util.Stats in
  let us x = x *. 1e6 in
  let total_mean = Stats.mean tl.Bft_trace.Timeline.end_to_end in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "%s (%d requests, %d incomplete)"
           title tl.Bft_trace.Timeline.requests tl.Bft_trace.Timeline.incomplete)
      ~columns:
        [
          ("phase", Table.Left);
          ("mean (us)", Table.Right);
          ("p50 (us)", Table.Right);
          ("p95 (us)", Table.Right);
          ("p99 (us)", Table.Right);
          ("share", Table.Right);
        ]
  in
  List.iter
    (fun (name, stats) ->
      if name = "end-to-end" then Table.add_separator table;
      let mean = Stats.mean stats in
      let share =
        if name = "end-to-end" || Float.is_nan total_mean || total_mean = 0.0
        then "-"
        else Printf.sprintf "%.1f%%" (100.0 *. mean /. total_mean)
      in
      Table.add_row table
        [
          name;
          Table.cell_f ~decimals:1 (us mean);
          Table.cell_f ~decimals:1 (us (Stats.p50 stats));
          Table.cell_f ~decimals:1 (us (Stats.p95 stats));
          Table.cell_f ~decimals:1 (us (Stats.p99 stats));
          share;
        ])
    (Bft_trace.Timeline.phases tl);
  { id; title; table; anchors = [] }

(* Paper Section 4.2: where do the modeled CPU cycles go? One row per
   machine plus a cluster-wide total, one column per cost category. *)
let profile_section (p : Bft_trace.Profile.t) =
  let id = "profile" and title = "CPU cost breakdown (virtual time)" in
  let module Profile = Bft_trace.Profile in
  let us x = x *. 1e6 in
  let labels = Profile.labels p in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "%s%s" title
           (if Profile.balanced p then "" else " [UNBALANCED]"))
      ~columns:
        (("machine", Table.Left)
        :: (Array.to_list labels
           |> List.map (fun l -> (l ^ " (us)", Table.Right)))
        @ [ ("busy (us)", Table.Right) ])
  in
  List.iter
    (fun (n : Profile.node) ->
      Table.add_row table
        (n.Profile.pn_name
        :: (Array.to_list n.Profile.pn_seconds
           |> List.map (fun s -> Table.cell_f ~decimals:1 (us s)))
        @ [ Table.cell_f ~decimals:1 (us n.Profile.pn_busy) ]))
    (Profile.nodes p);
  Table.add_separator table;
  Table.add_row table
    ("total"
    :: (Array.to_list (Profile.totals p)
       |> List.map (fun s -> Table.cell_f ~decimals:1 (us s)))
    @ [ Table.cell_f ~decimals:1 (us (Profile.total_busy p)) ]);
  { id; title; table; anchors = [] }

(* Paper Section 4.2 counts operations, not just cycles: MACs generated and
   checked, bytes digested — per completed request when [ops] is given. *)
let crypto_section ?ops (c : Bft_crypto.Tally.snapshot) =
  let id = "crypto" and title = "Crypto operation counts" in
  let table =
    Table.create ~title
      ~columns:
        (("operation", Table.Left)
        :: ("count", Table.Right)
        :: ("bytes", Table.Right)
        ::
        (match ops with
        | Some _ -> [ ("per request", Table.Right) ]
        | None -> []))
  in
  let row name count bytes =
    Table.add_row table
      (name :: string_of_int count :: string_of_int bytes
      ::
      (match ops with
      | Some n when n > 0 ->
        [ Table.cell_f ~decimals:1 (float_of_int count /. float_of_int n) ]
      | Some _ -> [ "-" ]
      | None -> []))
  in
  row "mac generate" c.Bft_crypto.Tally.mac_gen_ops c.Bft_crypto.Tally.mac_gen_bytes;
  row "mac verify" c.Bft_crypto.Tally.mac_verify_ops
    c.Bft_crypto.Tally.mac_verify_bytes;
  row "digest" c.Bft_crypto.Tally.digest_ops c.Bft_crypto.Tally.digest_bytes;
  { id; title; table; anchors = [] }
