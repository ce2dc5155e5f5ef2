module Stats = Bft_util.Stats

type t = {
  counts : (string, int ref) Hashtbl.t;
  stats : (string, Stats.t) Hashtbl.t;
}

let create () = { counts = Hashtbl.create 32; stats = Hashtbl.create 8 }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counts name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counts name (ref by)

let count t name =
  match Hashtbl.find_opt t.counts name with Some r -> !r | None -> 0

let sample t name v =
  let s =
    match Hashtbl.find_opt t.stats name with
    | Some s -> s
    | None ->
      let s = Stats.create () in
      Hashtbl.replace t.stats name s;
      s
  in
  Stats.add s v

let samples t name = Hashtbl.find_opt t.stats name

let by_name (a, _) (b, _) = String.compare a b

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counts []
  |> List.sort by_name

let stats_pairs t =
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.stats []
  |> List.sort by_name

let dump t =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Printf.bprintf b "  %s = %d\n" name v)
    (counters t);
  List.iter
    (fun (name, s) ->
      Printf.bprintf b
        "  %s: n=%d mean=%.6g p50=%.6g p95=%.6g p99=%.6g max=%.6g\n" name
        (Stats.count s) (Stats.mean s)
        (Stats.percentile s 50.0)
        (Stats.percentile s 95.0)
        (Stats.percentile s 99.0)
        (Stats.max s))
    (stats_pairs t);
  Buffer.contents b
