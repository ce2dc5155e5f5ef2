(* Replicas and clients under an asynchronous driver: no engine and no CPU
   model.

   An {!Env.t} record is each principal's only way to act, so this driver
   replaces the timed simulator with the asynchronous model the paper's
   safety argument is made for: a logical clock, a multiset of datagrams in
   flight and the armed timers. Any datagram in flight may be delivered
   next; a timer fires only when nothing is in flight. Datagrams go through
   the real codec ([Message.encode_envelope], then [Message.receive]); the
   driver's authenticator check accepts them all.

   Four replicas serve two real clients ([Client.t]), each over a record
   from the same builder. Seeded random schedules, in which each client
   issues a read-only and then a read-write operation, check that every
   operation completes, that every replica executes the same batches and
   that every replica's client table ends at each client's read-write
   timestamp. Another hundred reboot replica 3 between two rounds of
   read-write operations ([Replica.restart]) and check that it keeps
   nothing above its stable checkpoint and then catches up. Three hundred
   more run replica 3 mute, replaying or inflating its replies' view,
   through the wire-fault wrapper [Cluster] gives every replica
   ([Behavior.env]). A hand-written schedule shows what the commit quorum
   is for: the PREPAREs for seq 1 reach only replica 3 while the others
   change view and order another request there. *)

open Bft_core
module Fingerprint = Bft_crypto.Fingerprint
module Keychain = Bft_crypto.Keychain
module Rng = Bft_util.Rng

let check = Alcotest.check

let f = 1

let n = (3 * f) + 1

(* Client principals follow the replicas'. *)
let client_a = n

let clients = 2

type datagram = {
  id : int;  (* send order *)
  src : int;
  dst : int;  (* principal *)
  env : Message.envelope;  (* what was encoded, for hand-written schedules *)
  wire : string;
  size : int;
}

(* A principal's timer slot, or a one-shot. *)
type timer_key = Slot of int * Env.timer | One_shot of int

type world = {
  mutable clock : float;
  mutable flight : datagram list;  (* newest first *)
  mutable sent : int;
  mutable from_3 : datagram list;  (* what replica 3 put in flight, newest first *)
  mutable timers : (timer_key * float * (unit -> unit)) list;  (* arm order *)
  mutable one_shots : int;
  mutable replicas : Replica.t array;
  mutable clients : Client.t array;  (* principal [n + i] at [i] *)
  todo : (bool * Payload.t) list array;
      (* each client's operations still to invoke: (read-only, op) *)
  outcomes : Client.outcome list array;  (* each client's, newest first *)
}

(* --- the driver's side of [Env.t] -------------------------------------- *)

let put w d =
  w.flight <- d :: w.flight;
  w.sent <- w.sent + 1;
  if d.src = 3 then w.from_3 <- d :: w.from_3

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
  put w { id = w.sent; src; dst; env; wire; size = Message.envelope_size env wire }

let cancel w key = w.timers <- List.filter (fun (k, _, _) -> k <> key) w.timers

let arm w key ~delay fn =
  cancel w key;
  w.timers <- w.timers @ [ (key, w.clock +. delay, fn) ]

let armed w key = List.exists (fun (k, _, _) -> k = key) w.timers

(* Every replica but [self]: all of them, for a client. *)
let others self = List.filter (fun j -> j <> self) (List.init n Fun.id)

let env w i =
  {
    Env.send = (fun dst msg -> post w ~src:i ~dst ~commits:[] msg);
    multicast =
      (fun ~commits msg ->
        List.iter (fun dst -> post w ~src:i ~dst ~commits msg) (others i));
    check = (fun _ -> Transport.Accepted);
    arm = (fun timer ~delay fn -> arm w (Slot (i, timer)) ~delay fn);
    cancel = (fun timer -> cancel w (Slot (i, timer)));
    armed = (fun timer -> armed w (Slot (i, timer)));
    after =
      (fun ~delay fn ->
        w.one_shots <- w.one_shots + 1;
        arm w (One_shot w.one_shots) ~delay fn);
    charge = (fun ?cat:_ _ -> ());
    now = (fun () -> w.clock);
    cpu_now = (fun () -> w.clock);
    trace = (fun ~vtime:_ ~node:_ ?seqno:_ ?view:_ ?req_id:_ ?detail:_ _ -> ());
  }

(* Replica [i]'s record, wrapped with the wire faults of its behaviour as
   [Cluster] wraps it; a replayed datagram goes back in flight, as it
   arrived, to every other replica. *)
let replica_env w i rng =
  Behavior.env
    ~current:(fun () -> Replica.behavior w.replicas.(i))
    ~rng ~ring:(Behavior.ring ())
    ~inject:(fun ~wire ~size ->
      let env = Message.decode_envelope wire in
      List.iter
        (fun dst -> put w { id = w.sent; src = i; dst; env; wire; size })
        (others i))
    (env w i)

(* --- clients ------------------------------------------------------------- *)

(* Invoke client [i]'s next operation, if any; its callback invokes the one
   after it. *)
let rec invoke_next w i =
  match w.todo.(i) with
  | [] -> ()
  | (read_only, op) :: rest ->
    w.todo.(i) <- rest;
    Client.invoke w.clients.(i) ~read_only op (fun o ->
        w.outcomes.(i) <- o :: w.outcomes.(i);
        invoke_next w i)

(* --- delivery and timers ---------------------------------------------- *)

let deliver w d =
  w.flight <- List.filter (fun d' -> d'.id <> d.id) w.flight;
  let rx = Message.receive ~size:d.size d.wire in
  if d.dst < n then Replica.receive w.replicas.(d.dst) rx
  else Client.receive w.clients.(d.dst - n) rx

let fire w (key, deadline, fn) =
  cancel w key;
  w.clock <- Float.max w.clock deadline;
  fn ()

(* Each client is to invoke [ops] in turn; replica 3 behaves as
   [byzantine]. *)
let create ?(unsafe_no_commit_quorum = false) ?(byzantine = Behavior.Correct) ops =
  let config = Config.make ~f ~unsafe_no_commit_quorum () in
  let w =
    {
      clock = 0.0;
      flight = [];
      sent = 0;
      from_3 = [];
      timers = [];
      one_shots = 0;
      replicas = [||];
      clients = [||];
      todo = Array.make clients ops;
      outcomes = Array.make clients [];
    }
  in
  let principals = Keychain.deployment ~replicas:n ~client_base:n in
  for _ = 1 to clients do
    ignore (Keychain.admit_client principals : int)
  done;
  let trail = Trail.group () in
  let root = Rng.of_int 7 in
  w.replicas <-
    Array.init n (fun i ->
        Replica.create ~config
          ~env:(replica_env w i (Rng.split root (Printf.sprintf "replica%d" i)))
          ~keychain:(Keychain.create ~master:"async" ~self:i principals)
          ~cal:Bft_sim.Calibration.default
          ~service:(Service.null ())
          ~behavior:(if i = 3 then byzantine else Behavior.Correct)
          ~trail ());
  w.clients <-
    Array.init clients (fun i ->
        let id = n + i in
        Client.create ~config ~env:(env w id) ~id
          ~rng:(Rng.split root (Printf.sprintf "client%d" id))
          ());
  w

let all_done w =
  Array.for_all (fun ops -> ops = []) w.todo
  && Array.for_all (fun c -> not (Client.busy c)) w.clients

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

let read_only_op = Service.null_op ~read_only:true ~arg_size:8 ~result_size:8

let read_write_op = Service.null_op ~read_only:false ~arg_size:8 ~result_size:8

(* Every client invokes [ops] in turn; the run must then settle. *)
let settle w rng ~seed ops =
  for i = 0 to clients - 1 do
    w.todo.(i) <- ops;
    invoke_next w i
  done;
  if not (run w rng ~max_steps:20_000 ~until:settled) then
    Alcotest.failf
      "seed %d, replica 3 %s: no agreement on every request after 20000 steps\n%s"
      seed
      (Behavior.to_string (Replica.behavior w.replicas.(3)))
      (String.concat "\n" (Array.to_list (Array.map pp_trail w.replicas)))

let random_schedules ?(byzantine = Behavior.Correct) () =
  for seed = 1 to 100 do
    let w = create ~byzantine [] in
    settle w (Rng.of_int seed) ~seed [ (true, read_only_op); (false, read_write_op) ];
    let label what =
      Printf.sprintf "seed %d, replica 3 %s: %s" seed (Behavior.to_string byzantine) what
    in
    (* Both operations of each client completed and were not rejected, and
       every replica's client table holds each client's read-write
       timestamp (2: the read-only operation took 1) as finally executed. *)
    Array.iteri
      (fun i outcomes ->
        check Alcotest.int
          (label (Printf.sprintf "client %d's operations completed" i))
          2 (List.length outcomes);
        List.iter
          (fun o -> check Alcotest.bool (label "not rejected") false o.Client.rejected)
          outcomes)
      w.outcomes;
    Array.iteri
      (fun i r ->
        check
          Alcotest.(list (pair int int64))
          (label (Printf.sprintf "replica %d's last request per client" i))
          (List.map (fun c -> (Client.id c, 2L)) (Array.to_list w.clients))
          (List.map (fun (c, ts, _) -> (c, ts)) (Replica.client_replies r)))
      w.replicas;
    let sent p = List.exists p w.from_3 in
    match byzantine with
    | Behavior.Mute ->
      check Alcotest.int (label "replica 3 sent nothing") 0 (List.length w.from_3)
    | Behavior.Replay ->
      check Alcotest.bool (label "replica 3 replayed") true
        (sent (fun d -> d.env.Message.sender <> 3))
    | Behavior.Inflate_view k ->
      check Alcotest.bool (label "replica 3 inflated a reply's view") true
        (sent (fun d ->
             match d.env.Message.msg with
             | Message.Reply r -> r.Message.view >= k
             | _ -> false));
      Array.iter
        (List.iter (fun o ->
             check Alcotest.bool (label "no outcome in an inflated view") true
               (o.Client.view < k)))
        w.outcomes
    | _ -> ()
  done

let test_random_schedules () = random_schedules ()

(* The first Byzantine principal with no engine: replica 3's wire faults
   wrap this driver's record, and the three correct replicas must still
   complete every operation, agree, and keep replica 3 level with them. *)
let test_byzantine_schedules () =
  List.iter
    (fun byzantine -> random_schedules ~byzantine ())
    [ Behavior.Mute; Behavior.Replay; Behavior.Inflate_view 1_000_000 ]

(* A reboot between two rounds of read-write operations, with no engine:
   right after [Replica.restart] replica 3 holds nothing above its stable
   checkpoint, and the second round brings its trail level with the
   others'. *)
let test_restart () =
  for seed = 1 to 100 do
    let w = create [] in
    let rng = Rng.of_int seed in
    settle w rng ~seed [ (false, read_write_op) ];
    let r = w.replicas.(3) in
    Replica.restart r;
    let label what = Printf.sprintf "seed %d: %s" seed what in
    let stable = Replica.last_stable r in
    check Alcotest.int (label "executed up to the checkpoint") stable
      (Replica.last_executed r);
    List.iter
      (fun (what, depth) -> check Alcotest.int (label what) 0 depth)
      [
        ("log depth", Replica.log_depth r);
        ("queue depth", Replica.queue_depth r);
        ("backlog", Replica.backlog r);
      ];
    check Alcotest.bool (label "trail ends at the checkpoint") true
      (List.for_all (fun (s, _) -> s <= stable) (Replica.executed_digests r));
    settle w rng ~seed [ (false, read_write_op) ]
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

(* Larger than [Config.inline_threshold], so the real client multicasts it
   on its first transmission (separate request transmission): the schedule
   below needs client A's request at every replica, and client B's at every
   replica but 3, without firing either client's [Resend_timer]. *)
let big_op =
  Service.null_op ~read_only:false ~arg_size:(Config.inline_threshold + 1)
    ~result_size:8

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
  let w = create ~unsafe_no_commit_quorum [ (false, big_op) ] in
  invoke_next w 0;
  deliver_all w (fun d -> d.src = client_a);
  deliver_all w (fun d -> d.src = 0 && is_pre_prepare d);
  deliver_all w (fun d -> is_prepare d && d.dst = 3 && d.src <> 3);
  check Alcotest.int "replica 3 executed seq 1" 1
    (Replica.last_executed w.replicas.(3));
  fire_timer w (Slot (1, Env.Vc_timer));
  fire_timer w (Slot (2, Env.Vc_timer));
  deliver_all w (fun d -> is_view_change d && d.dst = 0);
  deliver_all w (fun d -> is_view_change d && d.dst = 1);
  deliver_all w (fun d -> is_new_view d && d.dst <> 3);
  check Alcotest.(list int) "view 1 at replicas 0-2" [ 1; 1; 1; 0 ]
    (Array.to_list (Array.map Replica.view w.replicas));
  invoke_next w 1;
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
          Alcotest.test_case "restart between two rounds" `Quick test_restart;
          Alcotest.test_case "replica 3 mute, replaying or inflating views" `Quick
            test_byzantine_schedules;
        ] );
    ]
