(* The run bundle writer: the only code that knows the bundle layout. *)

let line_count s =
  let n = List.length (String.split_on_char '\n' s) - 1 in
  if s = "" || s.[String.length s - 1] = '\n' then n else n + 1

let write ?seed ?(trace = Trace.nil) ?series ?profile ?health ?(alerts = [])
    ?postmortem () ~dir ~subcommand ~cost_profile =
  let traced = Trace.enabled trace in
  (* (file, contents, evicted ring entries) for every artifact recorded *)
  let files =
    List.filter_map Fun.id
      [
        (if traced then
           Some ("trace.jsonl", Trace.jsonl trace, Some (Trace.dropped trace))
         else None);
        (if traced then
           Some ("chrome.json", Chrome.of_events (Trace.events trace), None)
         else None);
        Option.map
          (fun s -> ("series.jsonl", Series.jsonl s, Some (Series.dropped s)))
          series;
        Option.map (fun p -> ("profile.jsonl", Profile.jsonl p, None)) profile;
        Option.map
          (fun h ->
            ("health.txt", String.concat "" (List.map (fun l -> l ^ "\n") h), None))
          health;
        Option.map
          (fun _ -> ("alerts.json", Monitor.alerts_json alerts ^ "\n", None))
          health;
        Option.map (fun b -> ("postmortem.jsonl", b, None)) postmortem;
      ]
  in
  let b = Buffer.create 256 in
  Printf.bprintf b "{\"schema\":\"bft-lab/run-bundle/v1\",\"subcommand\":\"%s\""
    (Trace.escape subcommand);
  Option.iter (Printf.bprintf b ",\"seed\":%d") seed;
  Printf.bprintf b ",\"cost_profile\":\"%s\",\"files\":["
    (Trace.escape cost_profile);
  List.iteri
    (fun i (name, contents, evicted) ->
      Printf.bprintf b "%s{\"name\":\"%s\",\"lines\":%d"
        (if i = 0 then "" else ",")
        name (line_count contents);
      Option.iter (Printf.bprintf b ",\"evicted\":%d") evicted;
      Buffer.add_char b '}')
    files;
  Buffer.add_string b "]}\n";
  let written =
    List.map (fun (name, contents, _) -> (name, contents)) files
    @ [ ("manifest.json", Buffer.contents b) ]
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, contents) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          output_string oc contents))
    written;
  List.map (fun (name, contents) -> (name, line_count contents)) written
