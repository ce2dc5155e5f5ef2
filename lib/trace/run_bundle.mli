(** The run bundle: the one on-disk layout for everything a run observed.

    [trace.jsonl] and [chrome.json] (the trace ring), [series.jsonl],
    [profile.jsonl], [health.txt] (the printed health summary and alert
    lines), [alerts.json], [postmortem.jsonl] (the newest flight-recorder
    dump) and [manifest.json] (subcommand, seed, cost profile, each file
    with its line count and, for rings, how many entries were evicted).
    Every file renders deterministically, so the same seed writes a
    byte-identical directory. *)

val write :
  ?seed:int ->
  ?trace:Trace.t ->
  ?series:Series.t ->
  ?profile:Profile.t ->
  ?health:string list ->
  ?alerts:Monitor.alert list ->
  ?postmortem:string ->
  unit ->
  dir:string ->
  subcommand:string ->
  cost_profile:string ->
  (string * int) list
(** Write whichever artifacts were given into [dir] (created if missing;
    its parent must exist) and return each file with its line count,
    manifest last; the manifest lists exactly the files this run wrote.
    [alerts.json] is written whenever [health] is. Raises [Sys_error] if
    the directory cannot be written. *)
