(* Causal spans over a protocol trace.

   A span is one phase of one request's life (client send, replica receive,
   execute, reply, client deliver) or one phase of one batch's ordering
   (pre-prepare, prepare, commit). Span ids are derived deterministically
   from (request id, view, seqno, phase) with a splitmix64 finalizer, so the
   same trace always yields the same DAG and ids can be recomputed from the
   protocol state alone — nothing rides on the wire.

   Requests are bound to batches without any extra instrumentation by
   exploiting emission order: replicas emit one [Exec_request] per request
   and then the batch-level [Exec_tentative]/[Exec_final] carrying the
   seqno, so the per-node run of exec events since the previous batch event
   is exactly the batch's request set. *)

type phase =
  | Request (* client sent (retransmits fold in) *)
  | Recv (* replica received a fresh request *)
  | Preprepare (* primary proposed / backups accepted (view, seq) *)
  | Prepare (* (view, seq) prepared *)
  | Commit (* (view, seq) committed *)
  | Exec (* request executed (tentative, final or read-only) *)
  | Reply (* replica replied *)
  | Deliver (* client accepted a reply quorum *)

let phase_index = function
  | Request -> 0
  | Recv -> 1
  | Preprepare -> 2
  | Prepare -> 3
  | Commit -> 4
  | Exec -> 5
  | Reply -> 6
  | Deliver -> 7

let mix64 z =
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  let z = Int64.mul z 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  let z = Int64.mul z 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let id ~req ~view ~seq ~phase =
  let h = mix64 (Int64.logxor req 0x9E3779B97F4A7C15L) in
  let h = mix64 (Int64.logxor h (Int64.of_int view)) in
  let h = mix64 (Int64.logxor h (Int64.of_int seq)) in
  mix64 (Int64.logxor h (Int64.of_int (phase_index phase)))

type span = {
  sp_id : int64;
  sp_phase : phase;
  sp_req : int64; (* -1 for batch-level ordering spans *)
  sp_view : int; (* -1 when unknown (client-side spans) *)
  mutable sp_seq : int; (* -1 until bound to a batch *)
  mutable sp_first : float;
  mutable sp_last : float;
  mutable sp_events : int;
  mutable sp_nodes : int list; (* distinct emitting principals, first-seen order *)
  mutable sp_parents : int64 list; (* causal predecessors, first-added order *)
}

(* Per-request index of the spans that matter for causal chaining. *)
type req_info = {
  mutable rq_request : span option;
  mutable rq_recvs : span list;
  mutable rq_execs : span list;
  mutable rq_replies : span list;
  mutable rq_deliver : span option;
}

(* Per-(view, seq) index of the ordering spans. *)
type batch_info = {
  mutable bt_preprepare : span option;
  mutable bt_prepare : span option;
  mutable bt_commit : span option;
}

type t = {
  spans : (int64, span) Hashtbl.t;
  mutable order : span list; (* creation order, reversed *)
  reqs : (int64, req_info) Hashtbl.t;
  mutable req_order : int64 list; (* reversed *)
  batches : (int * int, batch_info) Hashtbl.t;
  mutable edges : int;
}

let create () =
  {
    spans = Hashtbl.create 256;
    order = [];
    reqs = Hashtbl.create 64;
    req_order = [];
    batches = Hashtbl.create 64;
    edges = 0;
  }

let req_info t req =
  match Hashtbl.find_opt t.reqs req with
  | Some r -> r
  | None ->
    let r =
      {
        rq_request = None;
        rq_recvs = [];
        rq_execs = [];
        rq_replies = [];
        rq_deliver = None;
      }
    in
    Hashtbl.add t.reqs req r;
    t.req_order <- req :: t.req_order;
    r

let batch_info t ~view ~seq =
  match Hashtbl.find_opt t.batches (view, seq) with
  | Some b -> b
  | None ->
    let b = { bt_preprepare = None; bt_prepare = None; bt_commit = None } in
    Hashtbl.add t.batches (view, seq) b;
    b

let touch t ~req ~view ~seq ~phase ~vtime ~node =
  let sid = id ~req ~view ~seq ~phase in
  match Hashtbl.find_opt t.spans sid with
  | Some s ->
    if vtime < s.sp_first then s.sp_first <- vtime;
    if vtime > s.sp_last then s.sp_last <- vtime;
    s.sp_events <- s.sp_events + 1;
    if not (List.mem node s.sp_nodes) then s.sp_nodes <- s.sp_nodes @ [ node ];
    s
  | None ->
    let s =
      {
        sp_id = sid;
        sp_phase = phase;
        sp_req = req;
        sp_view = view;
        sp_seq = seq;
        sp_first = vtime;
        sp_last = vtime;
        sp_events = 1;
        sp_nodes = [ node ];
        sp_parents = [];
      }
    in
    Hashtbl.add t.spans sid s;
    t.order <- s :: t.order;
    s

let add_parent t span parent =
  if parent.sp_id <> span.sp_id && not (List.mem parent.sp_id span.sp_parents)
  then begin
    span.sp_parents <- span.sp_parents @ [ parent.sp_id ];
    t.edges <- t.edges + 1
  end

(* The latest ordering span that exists for a batch: the exec of a finally
   executed batch hangs off its commit, a tentative exec off its prepare. *)
let batch_tail b =
  match b.bt_commit with
  | Some _ as s -> s
  | None -> ( match b.bt_prepare with Some _ as s -> s | None -> b.bt_preprepare)

let of_events events =
  let t = create () in
  (* Requests executed on a node since its last batch-level exec event. *)
  let pending_exec : (int, span list ref) Hashtbl.t = Hashtbl.create 16 in
  let pending_for node =
    match Hashtbl.find_opt pending_exec node with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add pending_exec node l;
      l
  in
  List.iter
    (fun (e : Trace.event) ->
      let vtime = e.Trace.vtime
      and node = e.Trace.node
      and req = e.Trace.req_id
      and view = e.Trace.view
      and seq = e.Trace.seqno in
      match e.Trace.kind with
      | Trace.Client_send | Trace.Client_retransmit ->
        let s = touch t ~req ~view:(-1) ~seq:(-1) ~phase:Request ~vtime ~node in
        let r = req_info t req in
        if r.rq_request = None then r.rq_request <- Some s
      | Trace.Request_recv ->
        let s = touch t ~req ~view ~seq:(-1) ~phase:Recv ~vtime ~node in
        let r = req_info t req in
        if not (List.memq s r.rq_recvs) then r.rq_recvs <- r.rq_recvs @ [ s ];
        Option.iter (fun p -> add_parent t s p) r.rq_request
      | Trace.Preprepare_sent | Trace.Preprepare_accepted ->
        let s =
          touch t ~req:(-1L) ~view ~seq ~phase:Preprepare ~vtime ~node
        in
        let b = batch_info t ~view ~seq in
        if b.bt_preprepare = None then b.bt_preprepare <- Some s
      | Trace.Prepared ->
        let s = touch t ~req:(-1L) ~view ~seq ~phase:Prepare ~vtime ~node in
        let b = batch_info t ~view ~seq in
        if b.bt_prepare = None then b.bt_prepare <- Some s;
        Option.iter (fun p -> add_parent t s p) b.bt_preprepare
      | Trace.Committed ->
        let s = touch t ~req:(-1L) ~view ~seq ~phase:Commit ~vtime ~node in
        let b = batch_info t ~view ~seq in
        if b.bt_commit = None then b.bt_commit <- Some s;
        (match b.bt_prepare with
        | Some p -> add_parent t s p
        | None -> Option.iter (fun p -> add_parent t s p) b.bt_preprepare)
      | Trace.Exec_request ->
        let s = touch t ~req ~view ~seq:(-1) ~phase:Exec ~vtime ~node in
        let r = req_info t req in
        if not (List.memq s r.rq_execs) then r.rq_execs <- r.rq_execs @ [ s ];
        List.iter (fun recv -> add_parent t s recv) r.rq_recvs;
        if e.Trace.detail <> "read-only" then begin
          let l = pending_for node in
          if not (List.memq s !l) then l := !l @ [ s ]
        end
      | Trace.Exec_tentative | Trace.Exec_final ->
        (* Bind the run of per-request exec spans on this node to the
           batch: the batch's ordering tail precedes each exec, and each
           bound request's send precedes the pre-prepare that batched it. *)
        let l = pending_for node in
        let b = batch_info t ~view ~seq in
        List.iter
          (fun s ->
            if s.sp_seq = -1 then s.sp_seq <- seq;
            Option.iter (fun tail -> add_parent t s tail) (batch_tail b);
            match (b.bt_preprepare, (req_info t s.sp_req).rq_request) with
            | Some pp, Some rq ->
              if rq.sp_seq = -1 then rq.sp_seq <- seq;
              add_parent t pp rq
            | None, Some rq -> if rq.sp_seq = -1 then rq.sp_seq <- seq
            | _ -> ())
          !l;
        l := []
      | Trace.Reply_sent ->
        let s = touch t ~req ~view ~seq:(-1) ~phase:Reply ~vtime ~node in
        let r = req_info t req in
        if not (List.memq s r.rq_replies) then
          r.rq_replies <- r.rq_replies @ [ s ];
        List.iter (fun ex -> add_parent t s ex) r.rq_execs
      | Trace.Client_deliver ->
        let s = touch t ~req ~view:(-1) ~seq:(-1) ~phase:Deliver ~vtime ~node in
        let r = req_info t req in
        if r.rq_deliver = None then r.rq_deliver <- Some s;
        List.iter (fun rp -> add_parent t s rp) r.rq_replies
      | Trace.Sim_fire | Trace.Net_enqueue | Trace.Net_serialize
      | Trace.Net_deliver | Trace.Net_drop | Trace.Viewchange_start
      | Trace.Viewchange_end | Trace.Checkpoint_stable ->
        ())
    events;
  t

let spans t = List.rev t.order

let span_count t = Hashtbl.length t.spans

let edge_count t = t.edges

let find t sid = Hashtbl.find_opt t.spans sid

let requests t = List.rev t.req_order

let delivered t =
  List.filter
    (fun req -> (Hashtbl.find t.reqs req).rq_deliver <> None)
    (requests t)

(* Walk parents from [from]; true iff [target] is reachable. *)
let reaches t ~from ~target =
  let seen = Hashtbl.create 32 in
  let rec go sid =
    Int64.equal sid target
    || (not (Hashtbl.mem seen sid))
       &&
       (Hashtbl.add seen sid ();
        match find t sid with
        | None -> false
        | Some s -> List.exists go s.sp_parents)
  in
  go from

let check t =
  List.filter_map
    (fun req ->
      let r = Hashtbl.find t.reqs req in
      match (r.rq_deliver, r.rq_request) with
      | None, _ -> None (* never delivered: nothing to certify *)
      | Some _, None -> Some (req, "delivered but no client send recorded")
      | Some d, Some rq ->
        if reaches t ~from:d.sp_id ~target:rq.sp_id then None
        else Some (req, "deliver not reachable from send"))
    (requests t)

let complete t = check t = []

let summary t =
  let reqs = requests t in
  let delv = delivered t in
  let incomplete = check t in
  Printf.sprintf
    "spans=%d edges=%d requests=%d delivered=%d incomplete=%d" (span_count t)
    (edge_count t) (List.length reqs) (List.length delv)
    (List.length incomplete)
