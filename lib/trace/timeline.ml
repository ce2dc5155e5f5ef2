module Stats = Bft_util.Stats

type t = {
  requests : int;
  incomplete : int;
  client_to_primary : Stats.t;
  ordering : Stats.t;
  execution : Stats.t;
  reply : Stats.t;
  end_to_end : Stats.t;
}

(* A view over the span DAG: each request's boundaries are the earliest
   events of its spans. The "primary" receipt prefers an explicitly
   primary-tagged Request_recv (the request may also reach backups via
   multicast) but falls back to the earliest receipt of any replica.
   Requests are measured in order of their first transmission, ties in
   order of first appearance in the trace. *)
let of_dag ?(skip = 0) dag =
  let absent = neg_infinity in
  let complete = ref [] and incomplete = ref 0 in
  List.iter
    (fun req ->
      if req >= 0L then
        match Span.boundaries dag req with
        | None -> ()
        | Some b ->
          let recv =
            if b.Span.recv_primary = absent then b.Span.recv
            else b.Span.recv_primary
          in
          if
            b.Span.sent = absent || recv = absent || b.Span.exec = absent
            || b.Span.reply = absent || b.Span.deliver = absent
          then incr incomplete
          else
            complete :=
              (b.Span.sent, recv, b.Span.exec, b.Span.reply, b.Span.deliver)
              :: !complete)
    (Span.requests dag);
  let ordered =
    List.stable_sort
      (fun (a, _, _, _, _) (b, _, _, _, _) -> Float.compare a b)
      (List.rev !complete)
  in
  let measured = List.filteri (fun i _ -> i >= skip) ordered in
  let client_to_primary = Stats.create ()
  and ordering = Stats.create ()
  and execution = Stats.create ()
  and reply = Stats.create ()
  and end_to_end = Stats.create () in
  List.iter
    (fun (sent, recv, exec, reply_sent, delivered) ->
      Stats.add client_to_primary (recv -. sent);
      Stats.add ordering (exec -. recv);
      Stats.add execution (reply_sent -. exec);
      Stats.add reply (delivered -. reply_sent);
      Stats.add end_to_end (delivered -. sent))
    measured;
  {
    requests = List.length measured;
    incomplete = !incomplete;
    client_to_primary;
    ordering;
    execution;
    reply;
    end_to_end;
  }

let of_events ?skip events = of_dag ?skip (Span.of_events events)

let of_trace ?skip trace = of_events ?skip (Trace.events trace)

let phases t =
  [
    ("client->primary", t.client_to_primary);
    ("ordering", t.ordering);
    ("execution", t.execution);
    ("reply", t.reply);
    ("end-to-end", t.end_to_end);
  ]

let monotone t =
  List.for_all
    (fun (_, s) -> Stats.count s = 0 || Stats.min s >= 0.0)
    (phases t)
