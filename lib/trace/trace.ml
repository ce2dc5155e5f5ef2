type kind =
  | Sim_fire
  | Net_enqueue
  | Net_serialize
  | Net_deliver
  | Net_drop
  | Client_send
  | Client_retransmit
  | Client_deliver
  | Request_recv
  | Preprepare_sent
  | Preprepare_accepted
  | Prepared
  | Committed
  | Exec_request
  | Exec_tentative
  | Exec_final
  | Reply_sent
  | Viewchange_start
  | Viewchange_end
  | Checkpoint_stable

type event = {
  vtime : float;
  node : int;
  kind : kind;
  seqno : int;
  view : int;
  req_id : int64;
  detail : string;
}

let dummy_event =
  {
    vtime = 0.0;
    node = -1;
    kind = Sim_fire;
    seqno = -1;
    view = -1;
    req_id = -1L;
    detail = "";
  }

type t = {
  enabled : bool;
  sim_events_ : bool;
  capacity : int;
  ring : event array;
  mutable total_ : int;
}

let nil =
  { enabled = false; sim_events_ = false; capacity = 0; ring = [||]; total_ = 0 }

let create ?(capacity = 65536) ?(sim_events = false) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  {
    enabled = true;
    sim_events_ = sim_events;
    capacity;
    ring = Array.make capacity dummy_event;
    total_ = 0;
  }

let enabled t = t.enabled

let sim_events t = t.enabled && t.sim_events_

let emit t ~vtime ~node ?(seqno = -1) ?(view = -1) ?(req_id = -1L)
    ?(detail = "") kind =
  if t.enabled then begin
    t.ring.(t.total_ mod t.capacity) <-
      { vtime; node; kind; seqno; view; req_id; detail };
    t.total_ <- t.total_ + 1
  end

let total t = t.total_

let length t = Stdlib.min t.total_ t.capacity

let dropped t = t.total_ - length t

let iter_newest t k f =
  for i = t.total_ - Stdlib.min k (length t) to t.total_ - 1 do
    f t.ring.(i mod t.capacity)
  done

let iter t f = iter_newest t (length t) f

let events t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let clear t = t.total_ <- 0

(* Client timestamps are small sequential integers; 40 bits leaves room
   for ~10^12 requests per client while keeping ids readable. *)
let req_id ~client ~ts = Int64.logor (Int64.shift_left (Int64.of_int client) 40) ts

let kind_name = function
  | Sim_fire -> "sim.fire"
  | Net_enqueue -> "net.enqueue"
  | Net_serialize -> "net.serialize"
  | Net_deliver -> "net.deliver"
  | Net_drop -> "net.drop"
  | Client_send -> "client.send"
  | Client_retransmit -> "client.retransmit"
  | Client_deliver -> "client.deliver"
  | Request_recv -> "replica.request_recv"
  | Preprepare_sent -> "replica.preprepare_sent"
  | Preprepare_accepted -> "replica.preprepare_accepted"
  | Prepared -> "replica.prepared"
  | Committed -> "replica.committed"
  | Exec_request -> "replica.exec_request"
  | Exec_tentative -> "replica.exec_tentative"
  | Exec_final -> "replica.exec_final"
  | Reply_sent -> "replica.reply_sent"
  | Viewchange_start -> "replica.viewchange_start"
  | Viewchange_end -> "replica.viewchange_end"
  | Checkpoint_stable -> "replica.checkpoint_stable"

(* Only [detail] can hold arbitrary bytes; everything else formats from
   numbers, so escaping the single string keeps the export valid JSON. *)
let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_jsonl e =
  Printf.sprintf
    "{\"t\":%.9f,\"node\":%d,\"kind\":\"%s\",\"seq\":%d,\"view\":%d,\"req\":%Ld,\"detail\":\"%s\"}"
    e.vtime e.node (kind_name e.kind) e.seqno e.view e.req_id (escape e.detail)

let jsonl t =
  let b = Buffer.create 4096 in
  iter t (fun e ->
      Buffer.add_string b (event_jsonl e);
      Buffer.add_char b '\n');
  Buffer.contents b
