(* The replica under an asynchronous driver: no engine and no CPU model.

   [Replica.env] is the replica's only way to act, so this driver replaces
   the timed simulator with the asynchronous model the paper's safety
   argument is made for: a logical clock, a multiset of datagrams in
   flight and the armed timers. Any datagram in flight may be delivered
   next; a timer fires only when nothing is in flight. Datagrams go through
   the real codec ([Message.encode_envelope], then [Message.receive]); the
   driver's authenticator check accepts them all.

   Four replicas serve two clients the driver plays itself, each sending
   two requests. Seeded random schedules check that every request
   executes, that every replica executes the same batches and that each
   client collects matching replies. A hand-written schedule shows what
   the commit quorum is for: the PREPAREs for seq 1 reach only replica 3
   while the others change view and order another request there. *)

open Bft_core
module Fingerprint = Bft_crypto.Fingerprint
module Keychain = Bft_crypto.Keychain
module Rng = Bft_util.Rng

let check = Alcotest.check

let f = 1

let n = (3 * f) + 1

(* Client principals follow the replicas'. *)
let client_a = n

let client_b = n + 1

type datagram = {
  id : int;  (* send order *)
  src : int;
  dst : int;  (* principal *)
  env : Message.envelope;  (* what was encoded, for hand-written schedules *)
  wire : string;
  size : int;
}

type timer_key =
  | Replica_timer of int * Replica.timer
  | One_shot of int
  | Client_timer of int

type client = {
  principal : int;
  requests : int;  (* to send, one at a time *)
  mutable ts : int64;  (* the outstanding (or last) request *)
  mutable completed : int;
  replies : (Fingerprint.t * bool) option array;  (* for [ts], by replica *)
  mutable accepted : (int64 * Fingerprint.t * int) list;
      (* (ts, result digest, matching replies), newest first *)
}

type world = {
  mutable clock : float;
  mutable flight : datagram list;  (* newest first *)
  mutable sent : int;
  mutable timers : (timer_key * float * (unit -> unit)) list;  (* arm order *)
  mutable one_shots : int;
  mutable replicas : Replica.t array;
  clients : client array;
  config : Config.t;
}

(* --- the driver's side of [Replica.env] -------------------------------- *)

let post w ~src ~dst ~commits msg =
  let env =
    {
      Message.sender = src;
      msg;
      commits;
      auth = { Bft_crypto.Auth.nonce = Int64.of_int w.sent; entries = [] };
    }
  in
  let wire = Message.encode_envelope env in
  w.flight <-
    { id = w.sent; src; dst; env; wire; size = Message.envelope_size env wire }
    :: w.flight;
  w.sent <- w.sent + 1

let cancel w key = w.timers <- List.filter (fun (k, _, _) -> k <> key) w.timers

let arm w key ~delay fn =
  cancel w key;
  w.timers <- w.timers @ [ (key, w.clock +. delay, fn) ]

let armed w key = List.exists (fun (k, _, _) -> k = key) w.timers

let others self = List.filter (fun j -> j <> self) (List.init n Fun.id)

let replica_env w i =
  {
    Replica.send =
      (fun (dst : Transport.peer) msg -> post w ~src:i ~dst:dst.principal ~commits:[] msg);
    multicast =
      (fun ~commits msg ->
        List.iter (fun dst -> post w ~src:i ~dst ~commits msg) (others i));
    replay =
      (fun ~wire ~size ->
        List.iter
          (fun dst ->
            let env = Message.decode_envelope wire in
            w.flight <- { id = w.sent; src = i; dst; env; wire; size } :: w.flight;
            w.sent <- w.sent + 1)
          (others i));
    check = (fun _ -> Transport.Accepted);
    arm = (fun timer ~delay fn -> arm w (Replica_timer (i, timer)) ~delay fn);
    cancel = (fun timer -> cancel w (Replica_timer (i, timer)));
    armed = (fun timer -> armed w (Replica_timer (i, timer)));
    after =
      (fun ~delay fn ->
        w.one_shots <- w.one_shots + 1;
        arm w (One_shot w.one_shots) ~delay fn);
    charge = (fun ?cat:_ _ -> ());
    now = (fun () -> w.clock);
    cpu_now = (fun () -> w.clock);
    trace = (fun ~vtime:_ ~node:_ ?seqno:_ ?view:_ ?req_id:_ ?detail:_ _ -> ());
  }

(* --- clients ------------------------------------------------------------- *)

let op = Service.null_op ~read_only:false ~arg_size:8 ~result_size:8

(* Requests go to every replica, as a real client's retransmissions do:
   the backups then watch the primary. *)
let rec send_request w c ~full_replies =
  let request =
    {
      Message.client = c.principal;
      timestamp = c.ts;
      read_only = false;
      full_replies;
      replier = (if full_replies then -1 else (c.principal + Int64.to_int c.ts) mod n);
      op;
    }
  in
  List.iter
    (fun dst -> post w ~src:c.principal ~dst ~commits:[] (Message.Request request))
    (List.init n Fun.id);
  arm w (Client_timer c.principal) ~delay:w.config.Config.client_retry_timeout
    (fun () -> resend w c)

and resend w c = send_request w c ~full_replies:true

let start_next w c =
  c.ts <- Int64.add c.ts 1L;
  Array.fill c.replies 0 n None;
  send_request w c ~full_replies:false

(* The real client's acceptance rule: f+1 matching committed replies, or
   2f+1 matching replies some of which are tentative. *)
let on_reply w c (r : Message.reply) =
  if r.Message.timestamp = c.ts && c.completed < c.requests then begin
    let digest =
      match r.Message.body with
      | Message.Full_result p -> Payload.digest p
      | Message.Result_digest d -> d
    in
    (match c.replies.(r.Message.replica) with
    | Some (_, false) when r.Message.tentative -> ()
    | _ -> c.replies.(r.Message.replica) <- Some (digest, r.Message.tentative));
    let matching committed_only =
      Array.fold_left
        (fun k -> function
          | Some (d, tentative) when Fingerprint.equal d digest ->
            if committed_only && tentative then k else k + 1
          | _ -> k)
        0 c.replies
    in
    if matching true >= f + 1 || matching false >= (2 * f) + 1 then begin
      c.accepted <- (c.ts, digest, matching false) :: c.accepted;
      c.completed <- c.completed + 1;
      cancel w (Client_timer c.principal);
      if c.completed < c.requests then start_next w c
    end
  end

(* --- delivery and timers ---------------------------------------------- *)

let deliver w d =
  w.flight <- List.filter (fun d' -> d'.id <> d.id) w.flight;
  let rx = Message.receive ~size:d.size d.wire in
  if d.dst < n then Replica.receive w.replicas.(d.dst) rx
  else
    match rx.Message.rx_env.Message.msg with
    | Message.Reply r -> on_reply w w.clients.(d.dst - n) r
    | _ -> ()

let fire w (key, deadline, fn) =
  cancel w key;
  w.clock <- Float.max w.clock deadline;
  fn ()

let create ?(unsafe_no_commit_quorum = false) () =
  let config = Config.make ~f ~unsafe_no_commit_quorum () in
  let client principal =
    {
      principal;
      requests = 2;
      ts = 0L;
      completed = 0;
      replies = Array.make n None;
      accepted = [];
    }
  in
  let w =
    {
      clock = 0.0;
      flight = [];
      sent = 0;
      timers = [];
      one_shots = 0;
      replicas = [||];
      clients = [| client client_a; client client_b |];
      config;
    }
  in
  let principals = Keychain.deployment ~replicas:n ~client_base:n in
  Array.iter (fun _ -> ignore (Keychain.admit_client principals : int)) w.clients;
  let peer principal = { Transport.principal; node = principal } in
  let replicas = Array.init n peer in
  let lookup_client c =
    if c >= n && c < n + Array.length w.clients then Some (peer c) else None
  in
  let trail = Trail.group () in
  let root = Rng.of_int 7 in
  w.replicas <-
    Array.init n (fun i ->
        Replica.create ~config ~env:(replica_env w i)
          ~keychain:(Keychain.create ~master:"async" ~self:i principals)
          ~cal:Bft_sim.Calibration.default ~replicas ~lookup_client
          ~service:(Service.null ())
          ~rng:(Rng.split root (Printf.sprintf "replica%d" i))
          ~trail ());
  w

let all_done w = Array.for_all (fun c -> c.completed = c.requests) w.clients

let settled w =
  all_done w
  &&
  let first = Replica.executed_digests w.replicas.(0) in
  List.length first = Replica.last_executed w.replicas.(0)
  && Array.for_all (fun r -> Replica.executed_digests r = first) w.replicas

(* Deliver a random datagram in flight; with none in flight, stop if
   [until] holds, or fire a random armed timer. [false] if [max_steps]
   pass first. *)
let run w rng ~max_steps ~until =
  let rec step k =
    if k >= max_steps then false
    else
      match w.flight with
      | [] ->
        if until w then true
        else begin
          match w.timers with
          | [] -> false
          | timers ->
            fire w (List.nth timers (Rng.int rng (List.length timers)));
            step (k + 1)
        end
      | flight ->
        deliver w (List.nth flight (Rng.int rng (List.length flight)));
        step (k + 1)
  in
  step 0

let pp_trail r =
  String.concat " "
    (List.map
       (fun (s, d) -> Printf.sprintf "%d:%s" s (Format.asprintf "%a" Fingerprint.pp d))
       (Replica.executed_digests r))

(* --- seeded random schedules ------------------------------------------- *)

let test_random_schedules () =
  for seed = 1 to 100 do
    let w = create () in
    let rng = Rng.of_int seed in
    Array.iter (start_next w) w.clients;
    let ok = run w rng ~max_steps:20_000 ~until:settled in
    let label what = Printf.sprintf "seed %d: %s" seed what in
    if not ok then
      Alcotest.failf "seed %d: no agreement on every request after 20000 steps\n%s"
        seed
        (String.concat "\n" (Array.to_list (Array.map pp_trail w.replicas)));
    (* Every request executed and answered: each client accepted both, on
       f+1 matching replies or more, and the replicas' client table holds
       each client's last timestamp as finally executed. *)
    Array.iter
      (fun c ->
        check Alcotest.int (label "requests accepted") c.requests
          (List.length c.accepted);
        List.iter
          (fun (ts, _, matching) ->
            check Alcotest.bool
              (label (Printf.sprintf "client %d ts %Ld: f+1 matching" c.principal ts))
              true (matching >= f + 1))
          c.accepted)
      w.clients;
    Array.iteri
      (fun i r ->
        check
          Alcotest.(list (pair int int64))
          (label (Printf.sprintf "replica %d's last request per client" i))
          (List.map
             (fun c -> (c.principal, Int64.of_int c.requests))
             (Array.to_list w.clients))
          (List.map (fun (c, ts, _) -> (c, ts)) (Replica.client_replies r)))
      w.replicas
  done

(* --- a hand-written schedule ------------------------------------------- *)

let is_prepare d = match d.env.Message.msg with Message.Prepare _ -> true | _ -> false

let is_view_change d =
  match d.env.Message.msg with Message.View_change _ -> true | _ -> false

let is_new_view d = match d.env.Message.msg with Message.New_view _ -> true | _ -> false

let is_pre_prepare d =
  match d.env.Message.msg with Message.Pre_prepare _ -> true | _ -> false

(* Deliver, oldest first, every datagram in flight that satisfies [p] —
   including those the deliveries themselves send — until none does. *)
let rec deliver_all w p =
  match List.rev (List.filter p w.flight) with
  | [] -> ()
  | d :: _ ->
    deliver w d;
    deliver_all w p

let fire_timer w key =
  match List.find_opt (fun (k, _, _) -> k = key) w.timers with
  | Some timer -> fire w timer
  | None -> Alcotest.fail "timer not armed"

let seq1 r = List.assoc_opt 1 (Replica.executed_digests r)

(* View 0, primary 0. Client A's request reaches every replica; the
   PRE-PREPARE reaches the backups, and the PREPAREs of replicas 1 and 2
   reach replica 3 alone, which prepares seq 1. Replicas 1 and 2 time out
   and replica 0 joins them; the view-change messages and the NEW-VIEW
   miss replica 3, so the new primary, replica 1, learns of no prepared
   batch and orders client B's request at seq 1. Everything held back is
   then delivered, and the run goes on under a seeded random schedule.

   The timed simulator does not produce this: it would have to hold the
   copies of two PREPAREs for three replicas, and every message for one
   replica, through a whole view change. *)
let split_seq1 ~unsafe_no_commit_quorum =
  let w = create ~unsafe_no_commit_quorum () in
  let a = w.clients.(0) and b = w.clients.(1) in
  start_next w a;
  deliver_all w (fun d -> d.src = client_a);
  deliver_all w (fun d -> d.src = 0 && is_pre_prepare d);
  deliver_all w (fun d -> is_prepare d && d.dst = 3 && d.src <> 3);
  check Alcotest.int "replica 3 executed seq 1" 1
    (Replica.last_executed w.replicas.(3));
  fire_timer w (Replica_timer (1, Replica.Vc_timer));
  fire_timer w (Replica_timer (2, Replica.Vc_timer));
  deliver_all w (fun d -> is_view_change d && d.dst = 0);
  deliver_all w (fun d -> is_view_change d && d.dst = 1);
  deliver_all w (fun d -> is_new_view d && d.dst <> 3);
  check Alcotest.(list int) "view 1 at replicas 0-2" [ 1; 1; 1; 0 ]
    (Array.to_list (Array.map Replica.view w.replicas));
  start_next w b;
  deliver_all w (fun d -> d.dst <> 3);
  List.iter
    (fun i ->
      check Alcotest.bool
        (Printf.sprintf "replica %d executed client B's request at seq 1" i)
        true (seq1 w.replicas.(i) <> None))
    [ 0; 1; 2 ];
  let settled = run w (Rng.of_int 1) ~max_steps:5_000 ~until:settled in
  (w, settled)

let test_split_seq1_unsafe () =
  let w, settled = split_seq1 ~unsafe_no_commit_quorum:true in
  check Alcotest.bool "never settles" false settled;
  check Alcotest.int "replica 3 rolled nothing back" 0
    (Metrics.count (Replica.metrics w.replicas.(3)) "exec.rolled_back");
  let d0 = seq1 w.replicas.(0) and d3 = seq1 w.replicas.(3) in
  check Alcotest.bool "replicas 0 and 3 both executed seq 1" true
    (d0 <> None && d3 <> None);
  check Alcotest.bool "agreement broken at seq 1" false
    (Option.equal Fingerprint.equal d0 d3)

let test_split_seq1_safe () =
  let w, settled = split_seq1 ~unsafe_no_commit_quorum:false in
  check Alcotest.bool "settles: every request executed everywhere" true settled;
  let d0 = seq1 w.replicas.(0) in
  Array.iteri
    (fun i r ->
      check Alcotest.bool
        (Printf.sprintf "replica %d agrees at seq 1" i)
        true
        (Option.equal Fingerprint.equal (seq1 r) d0))
    w.replicas;
  check Alcotest.int "replica 3 rolled back its tentative execution" 1
    (Metrics.count (Replica.metrics w.replicas.(3)) "exec.rolled_back")

let () =
  Alcotest.run "async"
    [
      ( "asynchronous driver",
        [
          Alcotest.test_case "100 seeded random schedules" `Quick test_random_schedules;
          Alcotest.test_case "seq 1 split: breaks without the commit quorum" `Quick
            test_split_seq1_unsafe;
          Alcotest.test_case "seq 1 split: tentative execution rolls back" `Quick
            test_split_seq1_safe;
        ] );
    ]
