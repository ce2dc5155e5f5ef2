(* Unit tests for the smaller core modules: payload, config, metrics,
   behavior, types, merkle, transport, dispatcher, recovery scheduler. *)

open Bft_core
module Fingerprint = Bft_crypto.Fingerprint
module Keychain = Bft_crypto.Keychain
module Engine = Bft_sim.Engine
module Cpu = Bft_sim.Cpu
module Network = Bft_net.Network

let check = Alcotest.check

(* --- payload ------------------------------------------------------------ *)

let test_payload_model () =
  check Alcotest.int "zeros size" 4096 (Payload.size (Payload.zeros 4096));
  check Alcotest.int "string size" 5 (Payload.size (Payload.of_string "hello"));
  check Alcotest.int "mixed" 105
    (Payload.size { Payload.data = String.make 5 'x'; pad = 100 });
  check Alcotest.bool "digest commits to pad" false
    (Fingerprint.equal
       (Payload.digest (Payload.zeros 100))
       (Payload.digest (Payload.zeros 101)));
  check Alcotest.bool "pad is not data" false
    (Fingerprint.equal
       (Payload.digest (Payload.of_string "\000"))
       (Payload.digest (Payload.zeros 1)));
  Alcotest.check_raises "negative" (Invalid_argument "Payload.zeros") (fun () ->
      ignore (Payload.zeros (-1)))

let test_payload_codec () =
  let p = { Payload.data = "content"; pad = 512 } in
  let enc = Bft_util.Codec.Enc.create () in
  Payload.encode enc p;
  let p' = Payload.decode (Bft_util.Codec.Dec.of_string (Bft_util.Codec.Enc.to_string enc)) in
  check Alcotest.bool "roundtrip" true (Payload.equal p p')

(* --- types / config ------------------------------------------------------ *)

let test_primary_rotation () =
  check Alcotest.int "v0" 0 (Types.primary_of_view ~n:4 0);
  check Alcotest.int "v1" 1 (Types.primary_of_view ~n:4 1);
  check Alcotest.int "v4 wraps" 0 (Types.primary_of_view ~n:4 4);
  check Alcotest.int "quorum f=1" 3 (Types.quorum ~f:1);
  check Alcotest.int "quorum f=2" 5 (Types.quorum ~f:2);
  check Alcotest.int "weak f=2" 3 (Types.weak_quorum ~f:2)

let test_config_validation () =
  check Alcotest.bool "default valid" true
    (Result.is_ok (Config.validate (Config.make ~f:1 ())));
  check Alcotest.bool "f=0 invalid" true
    (Result.is_error (Config.validate (Config.make ~f:0 ())));
  check Alcotest.bool "window too small" true
    (Result.is_error
       (Config.validate (Config.make ~f:1 ~checkpoint_interval:100 ~log_window:100 ())));
  let c = Config.make ~f:3 () in
  check Alcotest.int "n = 3f+1" 10 c.Config.n

(* --- metrics ------------------------------------------------------------- *)

let test_metrics () =
  let m = Metrics.create () in
  check Alcotest.int "absent" 0 (Metrics.count m "x");
  Metrics.incr m "x";
  Metrics.incr ~by:4 m "x";
  check Alcotest.int "count" 5 (Metrics.count m "x");
  Metrics.sample m "lat" 1.0;
  Metrics.sample m "lat" 3.0;
  (match Metrics.samples m "lat" with
  | Some s -> check (Alcotest.float 1e-9) "mean" 2.0 (Bft_util.Stats.mean s)
  | None -> Alcotest.fail "no samples");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counters sorted" [ ("x", 5) ] (Metrics.counters m)

let test_metrics_sorting_and_dump () =
  let m = Metrics.create () in
  (* Same value under several names: a polymorphic-compare sort would order
     on the payload; the contract is name order only. *)
  List.iter
    (fun name -> Metrics.incr ~by:7 m name)
    [ "zeta"; "alpha"; "mid"; "beta" ];
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counters in name order"
    [ ("alpha", 7); ("beta", 7); ("mid", 7); ("zeta", 7) ]
    (Metrics.counters m);
  Metrics.sample m "b.lat" 2.0;
  Metrics.sample m "a.span" 2.5;
  check
    (Alcotest.list Alcotest.string)
    "stats_pairs in name order" [ "a.span"; "b.lat" ]
    (List.map fst (Metrics.stats_pairs m));
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  let dump = Metrics.dump m in
  List.iter
    (fun needle ->
      check Alcotest.bool
        (Printf.sprintf "dump mentions %s" needle)
        true (contains dump needle))
    [ "alpha = 7"; "zeta = 7"; "a.span"; "p99" ]

(* --- behavior ------------------------------------------------------------ *)

let test_behavior_classification () =
  check Alcotest.bool "correct" true (Behavior.is_correct Behavior.Correct);
  check Alcotest.bool "slow is correct" true (Behavior.is_correct (Behavior.Slow 0.01));
  List.iter
    (fun b -> check Alcotest.bool "faulty" false (Behavior.is_correct b))
    [
      Behavior.Crash_at 1.0; Behavior.Mute; Behavior.Two_faced;
      Behavior.Corrupt_replies; Behavior.Forge_auth; Behavior.Stale_view;
    ]

(* --- merkle --------------------------------------------------------------- *)

let test_merkle_paginate_reassemble () =
  let cases =
    [
      Payload.empty;
      Payload.of_string "small";
      Payload.of_string (String.make (Merkle.page_size + 100) 'x');
      { Payload.data = String.make 100 'd'; pad = 3 * Merkle.page_size };
      Payload.zeros (2 * Merkle.page_size);
      { Payload.data = String.make Merkle.page_size 'd'; pad = 1 };
    ]
  in
  List.iter
    (fun p ->
      let pages = Merkle.paginate p in
      check Alcotest.bool "roundtrip" true (Payload.equal p (Merkle.reassemble pages));
      Array.iter
        (fun page ->
          check Alcotest.bool "page bounded" true
            (Payload.size page <= Merkle.page_size))
        pages)
    cases

let test_merkle_root_and_diff () =
  let p1 = Payload.of_string (String.make 10000 'a') in
  let p2 = Payload.of_string (String.make 4096 'a' ^ String.make 5904 'b') in
  let d1 = Merkle.page_digests (Merkle.paginate p1) in
  let d2 = Merkle.page_digests (Merkle.paginate p2) in
  check Alcotest.bool "roots differ" false
    (Fingerprint.equal (Merkle.root d1) (Merkle.root d2));
  check Alcotest.bool "same root same pages" true
    (Fingerprint.equal (Merkle.root d1)
       (Merkle.root (Merkle.page_digests (Merkle.paginate p1))));
  (* only the pages after the shared 4 KB prefix differ *)
  check (Alcotest.list Alcotest.int) "diff" [ 1; 2 ] (Merkle.diff ~mine:d1 ~theirs:d2);
  check (Alcotest.list Alcotest.int) "no diff" [] (Merkle.diff ~mine:d1 ~theirs:d1);
  (* longer target: the extra pages are missing *)
  let p3 = Payload.of_string (String.make 20000 'a') in
  let d3 = Merkle.page_digests (Merkle.paginate p3) in
  check Alcotest.bool "extra pages missing" true
    (List.mem 4 (Merkle.diff ~mine:d1 ~theirs:d3))

let merkle_roundtrip_prop =
  QCheck.Test.make ~name:"merkle paginate/reassemble roundtrip" ~count:100
    QCheck.(pair (string_of_size (Gen.int_bound 10000)) (int_bound 20000))
    (fun (data, pad) ->
      let p = { Payload.data; pad } in
      Payload.equal p (Merkle.reassemble (Merkle.paginate p)))

(* --- log ring and body-wait index ------------------------------------------- *)

(* Random get/find/truncate/iter/set_missing sequences on a 4-slot ring,
   with seqs drawn from below the low watermark to two windows above it so
   that aliases mod the window and out-of-window seqs are common. The
   reference is a map from seq to (slot, missing digests). After every step
   each probed seq reads back the model's slot and each digest's waiters
   are exactly the model's slots lacking it, ascending. *)
type log_op =
  | Get of int
  | Find of int
  | Truncate of int
  | Iter
  | Set_missing of int * int list

let log_window = 4

let log_digests = Array.init 3 (fun i -> Fingerprint.of_string (string_of_int i))

let log_op_gen =
  QCheck.Gen.(
    let offset = int_range (-2) ((2 * log_window) + 2) in
    frequency
      [
        (4, map (fun o -> Get o) offset);
        (2, map (fun o -> Find o) offset);
        (1, map (fun k -> Truncate k) (int_bound (log_window + 2)));
        (1, return Iter);
        ( 4,
          map2
            (fun o ds -> Set_missing (o, ds))
            offset
            (list_size (int_bound 2) (int_bound (Array.length log_digests - 1))) );
      ])

let log_op_print = function
  | Get o -> Printf.sprintf "get +%d" o
  | Find o -> Printf.sprintf "find +%d" o
  | Truncate k -> Printf.sprintf "truncate +%d" k
  | Iter -> "iter"
  | Set_missing (o, ds) ->
    Printf.sprintf "missing +%d [%s]" o
      (String.concat ";" (List.map string_of_int ds))

module Int_map = Map.Make (Int)

let log_model_prop =
  QCheck.Test.make ~name:"log ring and body-wait index match a map" ~count:500
    QCheck.(
      make ~print:(Print.list log_op_print)
        Gen.(list_size (int_bound 60) log_op_gen))
    (fun ops ->
      let log = Log.create ~low:0 ~window:log_window ~replicas:4 () in
      let model = ref Int_map.empty in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      let agree () =
        let low = Log.low_watermark log in
        for seq = low - 2 to low + (3 * log_window) do
          match (Log.find log seq, Int_map.find_opt seq !model) with
          | None, None -> ()
          | Some slot, Some (s, _) when slot == s -> ()
          | _ -> fail "find %d disagrees" seq
        done;
        Array.iter
          (fun d ->
            let expected =
              Int_map.fold
                (fun seq (_, missing) acc ->
                  if List.exists (Fingerprint.equal d) missing then seq :: acc
                  else acc)
                !model []
              |> List.rev
            in
            if Log.waiting_for log d <> expected then fail "waiters disagree")
          log_digests
      in
      List.iter
        (fun op ->
          let low = Log.low_watermark log in
          (match op with
          | Get o -> (
            let seq = low + o in
            match Log.get log seq with
            | slot ->
              if slot.Log.seq <> seq then fail "get %d: slot %d" seq slot.Log.seq;
              if not (Int_map.mem seq !model) then
                model := Int_map.add seq (slot, []) !model
            | exception Invalid_argument _ ->
              if Log.in_window log seq then fail "get %d raised in window" seq)
          | Find o -> ignore (Log.find log (low + o))
          | Truncate k ->
            let new_low = low + k in
            Log.truncate log ~new_low;
            model := Int_map.filter (fun seq _ -> seq > new_low) !model
          | Iter ->
            let seen = ref [] in
            Log.iter log (fun slot -> seen := slot.Log.seq :: !seen);
            if List.rev !seen <> List.map fst (Int_map.bindings !model) then
              fail "iter order"
          | Set_missing (o, ds) -> (
            match Int_map.find_opt (low + o) !model with
            | Some (slot, _) ->
              let digests = List.map (Array.get log_digests) ds in
              Log.set_missing log slot digests;
              model := Int_map.add (low + o) (slot, digests) !model
            | None -> ()));
          agree ())
        ops;
      true)

(* --- execution trail -------------------------------------------------------- *)

(* One step of one of four replicas sharing a trail group: finalize the
   seq [delta] past its last one (a gap after a state transfer when
   [delta] > 1, a repeat or an out-of-order seq when [delta] <= 0) with the
   common digest ([variant] 0) or a divergent one; or restart, trimming to
   [back] below its last seq. *)
type trail_op = Finalize of int * int * int | Restart of int * int

let trail_op_print = function
  | Finalize (r, delta, variant) -> Printf.sprintf "r%d finalize %+d v%d" r delta variant
  | Restart (r, back) -> Printf.sprintf "r%d restart -%d" r back

let trail_op_gen =
  QCheck.Gen.(
    let replica = int_bound 3 in
    frequency
      [
        ( 10,
          map3
            (fun r delta variant -> Finalize (r, delta, variant))
            replica
            (frequency [ (8, return 1); (2, int_range 2 6); (2, int_range (-4) 0) ])
            (frequency [ (8, return 0); (1, int_range 1 2) ]) );
        (1, map2 (fun r back -> Restart (r, back)) replica (int_bound 8));
      ])

let trail_model_prop =
  QCheck.Test.make ~name:"shared trail matches a list per replica" ~count:300
    QCheck.(
      make ~print:(Print.list trail_op_print) Gen.(list_size (int_bound 80) trail_op_gen))
    (fun ops ->
      let group = Trail.group () in
      let trails = Array.init 4 (fun _ -> Trail.create group) in
      let models = Array.make 4 [] (* newest first *) and last = Array.make 4 0 in
      let digest seq variant = Fingerprint.of_string (Printf.sprintf "%d/%d" seq variant) in
      List.for_all
        (fun op ->
          (match op with
          | Finalize (r, delta, variant) ->
            let seq = Int.max 0 (last.(r) + delta) in
            let d = digest seq variant in
            Trail.append trails.(r) seq d;
            models.(r) <- (seq, d) :: models.(r);
            last.(r) <- seq
          | Restart (r, back) ->
            let stable = Int.max 0 (last.(r) - back) in
            Trail.trim trails.(r) stable;
            models.(r) <- List.filter (fun (seq, _) -> seq <= stable) models.(r);
            last.(r) <- stable);
          Array.for_all2 (fun trail model -> Trail.to_list trail = List.rev model) trails models)
        ops)

(* --- transport ------------------------------------------------------------ *)

(* A deployment of four replicas, for transports that talk among
   themselves. *)
let principals () = Keychain.deployment ~replicas:4 ~client_base:4

type trig = {
  engine : Engine.t;
  net : Network.t;
  deployment : Keychain.deployment;  (* the transports' *)
  transports : Transport.t array;
  received : (int * Message.envelope) list ref;
}

let make_trig () =
  let net = Network.simulation ~rng:(Bft_util.Rng.of_int 3) () in
  let engine = Network.engine net in
  let received = ref [] in
  let deployment = principals () in
  let transports =
    Array.init 3 (fun i ->
        let cpu = Cpu.create engine () in
        let node = Network.add_node net ~cpu ~name:(Printf.sprintf "n%d" i) () in
        let keychain = Keychain.create ~master:"m" ~self:i deployment in
        Transport.create net ~keychain ~node ())
  in
  Array.iteri
    (fun i transport ->
      let dispatcher = Dispatcher.install net (Transport.node transport) in
      Dispatcher.register_default dispatcher (fun rx ->
          if Transport.check transport rx = Transport.Accepted
          then received := (i, rx.Message.rx_env) :: !received))
    transports;
  { engine; net; deployment; transports; received }

let peer_of r i = { Transport.principal = i; node = Transport.node r.transports.(i) }

let sample_msg =
  Message.Checkpoint { Message.seq = 1; digest = Fingerprint.of_string "x"; replica = 0 }

let test_transport_send_verifies () =
  let r = make_trig () in
  Transport.send r.transports.(0) ~dst:(peer_of r 1) sample_msg;
  Engine.run r.engine;
  match !(r.received) with
  | [ (1, env) ] -> check Alcotest.int "sender" 0 env.Message.sender
  | _ -> Alcotest.fail "expected one verified delivery"

let test_transport_multicast () =
  let r = make_trig () in
  Transport.multicast r.transports.(0) ~dsts:[ peer_of r 1; peer_of r 2 ] sample_msg;
  Engine.run r.engine;
  check Alcotest.int "both verified" 2 (List.length !(r.received))

let test_transport_corrupt_auth_rejected () =
  let r = make_trig () in
  Transport.set_corrupt_auth r.transports.(0) true;
  Transport.send r.transports.(0) ~dst:(peer_of r 1) sample_msg;
  Engine.run r.engine;
  check Alcotest.int "rejected" 0 (List.length !(r.received))

let test_transport_charges_cpu () =
  let r = make_trig () in
  let cpu = Transport.cpu r.transports.(0) in
  let before = Cpu.total_busy cpu in
  Transport.send r.transports.(0) ~dst:(peer_of r 1)
    (Message.Request
       {
         Message.client = 0;
         timestamp = 1L;
         read_only = false;
         full_replies = false;
         replier = -1;
         op = Payload.zeros 100_000;
       });
  check Alcotest.bool "digest cost charged" true
    (Cpu.total_busy cpu -. before > 0.0005)

let verdict_t =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Transport.Accepted -> "Accepted"
        | Transport.Replayed -> "Replayed"
        | Transport.Rejected -> "Rejected"))
    ( = )

let test_transport_nonce_window () =
  let r = make_trig () in
  (* A fresh keychain with the sender's identity derives the same pairwise
     keys, letting us hand-roll datagrams with chosen nonces. *)
  let kc0 = Keychain.create ~master:"m" ~self:0 (principals ()) in
  let deliver ?(corrupt = false) nonce =
    let module Enc = Bft_util.Codec.Enc in
    let enc = Enc.create () in
    Message.encode_prefix_into enc ~sender:0 ~msg:sample_msg ~commits:[];
    let auth =
      Bft_crypto.Auth.generate kc0 ~nonce ~targets:[ 1 ]
        (Fingerprint.of_string (Enc.to_string enc))
    in
    let auth = if corrupt then Bft_crypto.Auth.corrupt auth else auth in
    Bft_crypto.Auth.encode enc auth;
    let wire = Enc.to_string enc in
    Transport.check r.transports.(1)
      (Message.receive ~size:(String.length wire) wire)
  in
  check verdict_t "first delivery accepted" Transport.Accepted (deliver 5L);
  check verdict_t "exact replay dropped" Transport.Replayed (deliver 5L);
  check verdict_t "older unseen nonce still accepted" Transport.Accepted
    (deliver 4L);
  check verdict_t "older nonce replay dropped" Transport.Replayed (deliver 4L);
  (* A corrupted MAC must not advance the window: the nonce it carried
     remains usable by the legitimate sender. *)
  check verdict_t "bad MAC rejected" Transport.Rejected
    (deliver ~corrupt:true 6L);
  check verdict_t "same nonce valid after forged attempt" Transport.Accepted
    (deliver 6L);
  (* Sliding: advancing far ahead expires everything behind the window. *)
  check verdict_t "jump ahead accepted" Transport.Accepted (deliver 100L);
  check verdict_t "below window is stale" Transport.Replayed (deliver 36L);
  check verdict_t "oldest in-window nonce accepted" Transport.Accepted
    (deliver 37L)

(* A hand-rolled datagram from [kc]'s principal to [dst], with [nonce]. *)
let datagram ~kc ~dst nonce =
  let module Enc = Bft_util.Codec.Enc in
  let enc = Enc.create () in
  Message.encode_prefix_into enc ~sender:(Keychain.self kc) ~msg:sample_msg ~commits:[];
  let auth =
    Bft_crypto.Auth.generate kc ~nonce ~targets:[ dst ]
      (Fingerprint.of_string (Enc.to_string enc))
  in
  Bft_crypto.Auth.encode enc auth;
  let wire = Enc.to_string enc in
  Message.receive ~size:(String.length wire) wire

(* Verdicts of one sender's nonces at two receivers: 0, 63, 64 and 65
   behind the highest, [Int64.max_int] and below, [Int64.min_int] and other
   negative nonces, before and after the window has seen them. The table
   was recorded from the boxed-record windows this storage replaced, host
   shift semantics included; A = accepted, R = replayed. *)
let test_transport_nonce_edges () =
  let r = make_trig () in
  let kc = Keychain.create ~master:"m" ~self:0 (principals ()) in
  let h = 1000L and mx = Int64.max_int and mn = Int64.min_int in
  let p62 = Int64.shift_left 1L 62 in
  let sends =
    [ (1, h); (1, Int64.sub h 63L); (1, Int64.sub h 64L); (1, Int64.sub h 65L);
      (1, Int64.sub h 63L); (1, h); (1, 0L); (1, -1L); (1, mn);
      (1, mx); (1, Int64.sub mx 63L); (1, Int64.sub mx 64L); (1, Int64.sub mx 65L);
      (1, mx); (1, h); (1, 0L); (1, -1L); (1, mn); (1, Int64.add mn 1L);
      (2, -5L); (2, -5L); (2, -100L); (2, mn); (2, 0L); (2, -63L); (2, -64L);
      (2, 3L); (2, -60L); (2, p62); (2, Int64.add p62 1L);
      (2, -1L); (2, 0L); (2, mn); (2, mx); (2, Int64.sub mx 1L); (2, 1L) ]
  in
  let verdicts =
    List.map
      (fun (dst, nonce) ->
        match Transport.check r.transports.(dst) (datagram ~kc ~dst nonce) with
        | Transport.Accepted -> 'A'
        | Transport.Replayed -> 'R'
        | Transport.Rejected -> 'X')
      sends
  in
  check Alcotest.string "verdicts" "AARRRRRRRAARRRARRRAARRARARAAAAARRAAA"
    (String.of_seq (List.to_seq verdicts))

(* A datagram naming a sender outside the deployment (an unadmitted client,
   a principal between the replicas and the client base, the largest wire
   id) is rejected before any crypto, and the receiver keeps no state for
   it. *)
let test_transport_outside_sender () =
  let net = Network.simulation ~rng:(Bft_util.Rng.of_int 3) () in
  let engine = Network.engine net in
  let deployment = Keychain.deployment ~replicas:4 ~client_base:10 in
  let client = Keychain.admit_client deployment in
  let node () = Network.add_node net ~cpu:(Cpu.create engine ()) ~name:"r" () in
  let receiver =
    Transport.create net ~keychain:(Keychain.create ~master:"m" ~self:1 deployment)
      ~node:(node ()) ()
  in
  let words () =
    ( Obj.reachable_words (Obj.repr receiver),
      Obj.reachable_words (Obj.repr (Transport.keychain receiver)) )
  in
  let from principal nonce =
    let kc = Keychain.create ~master:"m" ~self:principal deployment in
    datagram ~kc ~dst:1 nonce
  in
  let admitted = from client 1L in
  let outside = List.map (fun p -> from p 1L) [ client + 1; 7; 65535 ] in
  let before = words () in
  let busy = Cpu.total_busy (Transport.cpu receiver) in
  List.iter
    (fun rx -> check verdict_t "outside rejected" Transport.Rejected (Transport.check receiver rx))
    outside;
  check (Alcotest.pair Alcotest.int Alcotest.int) "no state kept" before (words ());
  check (Alcotest.float 0.0) "no crypto charged" busy (Cpu.total_busy (Transport.cpu receiver));
  check verdict_t "admitted client accepted" Transport.Accepted
    (Transport.check receiver admitted)

(* One multicast is decoded once: its three receivers share one envelope
   and its digests, yet each checks its own nonce and MAC tag, and the
   crypto tallies count the digest work of every receiver. *)
let test_multicast_decoded_once () =
  let module Tally = Bft_crypto.Tally in
  let net = Network.simulation ~rng:(Bft_util.Rng.of_int 5) () in
  let engine = Network.engine net in
  let transports =
    Array.init 4 (fun i ->
        let cpu = Cpu.create engine () in
        let node = Network.add_node net ~cpu ~name:(Printf.sprintf "n%d" i) () in
        Transport.create net
          ~keychain:(Keychain.create ~master:"m" ~self:i (principals ()))
          ~node ())
  in
  let got = ref [] in
  for i = 1 to 3 do
    let dispatcher = Dispatcher.install net (Transport.node transports.(i)) in
    Dispatcher.register_default dispatcher (fun rx ->
        let verdict = Transport.check transports.(i) rx in
        got := (i, rx, verdict, Message.received_request_digest rx) :: !got)
  done;
  let request =
    {
      Message.client = 0;
      timestamp = 1L;
      read_only = false;
      full_replies = false;
      replier = -1;
      op = Payload.of_string (String.make 1000 'x');
    }
  in
  let peer i = { Transport.principal = i; node = Transport.node transports.(i) } in
  Transport.multicast transports.(0) ~dsts:[ peer 1; peer 2; peer 3 ]
    (Message.Request request);
  let before = Tally.snapshot () in
  Engine.run engine;
  let during = Tally.diff (Tally.snapshot ()) before in
  match List.rev !got with
  | [ (1, rx1, v1, d1); (2, rx2, v2, d2); (3, rx3, v3, d3) ] ->
    check Alcotest.bool "one envelope for all receivers" true
      (rx1.Message.rx_env == rx2.Message.rx_env
      && rx2.Message.rx_env == rx3.Message.rx_env);
    List.iter (check verdict_t "own MAC accepted" Transport.Accepted) [ v1; v2; v3 ];
    check Alcotest.bool "one request digest" true (d1 == d2 && d2 == d3);
    check Alcotest.bool "the request's digest" true
      (Fingerprint.equal d1 (Message.request_digest request));
    (* Three prefix digests and three request digests, as if each
       receiver had computed its own. *)
    check Alcotest.int "digests counted per receiver" 6 during.Tally.digest_ops;
    let before = Tally.snapshot () in
    check verdict_t "second delivery replayed" Transport.Replayed
      (Transport.check transports.(1) rx1);
    check Alcotest.int "a replay digests nothing" 0
      (Tally.diff (Tally.snapshot ()) before).Tally.digest_ops
  | _ -> Alcotest.fail "expected one delivery at each of three receivers"

(* --- recorded tags ----------------------------------------------------------- *)

(* A transport records in each datagram the prefix digest and the true tag
   of every target, and a receiver whose inbound session is the one a tag
   was computed under compares instead of computing a MAC. Every verdict
   below is the one the MAC gives. *)

module Auth = Bft_crypto.Auth

(* The wire [kc]'s principal builds for [dst] with [nonce], as its
   transport does, and the origin it records; [corrupt] flips the tags
   after they are recorded, as a forger's transport does. *)
let built ?(corrupt = false) ?(msg = sample_msg) ?(also = []) ~kc ~dst nonce =
  let module Enc = Bft_util.Codec.Enc in
  let enc = Enc.create () in
  Message.encode_prefix_into enc ~sender:(Keychain.self kc) ~msg ~commits:[];
  let prefix_len = Enc.length enc in
  let fp = Fingerprint.of_string (Enc.to_string enc) in
  let auth = Auth.seal enc kc ~nonce ~targets:(dst :: also) ~corrupt fp in
  let wire = Enc.to_string enc in
  (wire, Message.Built { wire; prefix_len; auth })

let received ?origin wire = Message.receive ?origin ~size:(String.length wire) wire

(* [make_trig] with every delivery to transport 1 captured, unchecked. *)
let capturing_trig () =
  let r = make_trig () in
  let captured = ref [] in
  let dispatcher = Dispatcher.install r.net (Transport.node r.transports.(1)) in
  Dispatcher.register_default dispatcher (fun rx -> captured := rx :: !captured);
  (r, captured)

let take captured =
  match !captured with
  | [ rx ] ->
    captured := [];
    rx
  | l -> Alcotest.failf "expected one capture, got %d" (List.length l)

let recorded rx = Option.is_some rx.Message.rx_origin

let test_recorded_forgeries_rejected () =
  let r, captured = capturing_trig () in
  let receiver = r.transports.(1) in
  let kc = Keychain.create ~master:"m" ~self:0 r.deployment in
  (* A forger's transport: the datagram records true tags, the wire
     carries flipped ones. *)
  Transport.set_corrupt_auth r.transports.(0) true;
  Transport.send r.transports.(0) ~dst:(peer_of r 1) sample_msg;
  Engine.run r.engine;
  let rx = take captured in
  check Alcotest.bool "forger's datagram recorded" true (recorded rx);
  check verdict_t "set_corrupt_auth rejected" Transport.Rejected (Transport.check receiver rx);
  let wire, origin = built ~corrupt:true ~kc ~dst:1 7L in
  let rx = received ~origin wire in
  check Alcotest.bool "recorded" true (recorded rx);
  check verdict_t "Auth.corrupt rejected" Transport.Rejected (Transport.check receiver rx);
  (* The forgery did not use up its nonce. *)
  let wire, origin = built ~kc ~dst:1 7L in
  check verdict_t "then the genuine wire accepted" Transport.Accepted
    (Transport.check receiver (received ~origin wire));
  (* Another wire's origin, same sender, session and nonce: the wire's own
     tag decides either way. *)
  let msg = Message.Checkpoint { Message.seq = 2; digest = Fingerprint.zero; replica = 0 } in
  let other = snd (built ~msg ~kc ~dst:1 8L) in
  check verdict_t "genuine under a foreign origin" Transport.Accepted
    (Transport.check receiver (received ~origin:other (fst (built ~kc ~dst:1 8L))));
  check verdict_t "corrupt under a foreign origin" Transport.Rejected
    (Transport.check receiver (received ~origin:other (fst (built ~corrupt:true ~kc ~dst:1 9L))))

(* A replayed wire is a new transmit with no origin: its receiver computes
   the MAC, so only a genuine tag passes. *)
let test_replayed_wire_recomputes () =
  let r, captured = capturing_trig () in
  let receiver = r.transports.(1) in
  let node i = Transport.node r.transports.(i) in
  let replay rx =
    (* What [Behavior]'s Replay does with a wire it kept. *)
    Network.send r.net ~src:(node 2) ~dst:(node 1) ~size:rx.Message.rx_size rx.Message.rx_wire;
    Engine.run r.engine;
    take captured
  in
  Transport.send r.transports.(0) ~dst:(peer_of r 1) sample_msg;
  Engine.run r.engine;
  let original = take captured in
  let again = replay original in
  check Alcotest.bool "replay records nothing" false (recorded again);
  check verdict_t "genuine replay accepted once" Transport.Accepted (Transport.check receiver again);
  check verdict_t "then replayed" Transport.Replayed (Transport.check receiver (replay original));
  Transport.set_corrupt_auth r.transports.(0) true;
  Transport.send r.transports.(0) ~dst:(peer_of r 1) sample_msg;
  Engine.run r.engine;
  let forged = replay (take captured) in
  check Alcotest.bool "forged replay records nothing" false (recorded forged);
  check verdict_t "forged replay rejected" Transport.Rejected (Transport.check receiver forged)

(* A datagram built under the receiver's old inbound epoch and checked
   after the receiver refreshed its keys (what [Replica.start_recovery]
   does first): its recorded tag is true, but for a session the receiver
   no longer accepts. *)
let test_old_epoch_rejected () =
  let r, captured = capturing_trig () in
  let receiver = r.transports.(1) in
  Transport.multicast r.transports.(0) ~dsts:[ peer_of r 1 ] sample_msg;
  Transport.multicast r.transports.(0) ~dsts:[ peer_of r 1 ] sample_msg;
  Engine.run r.engine;
  let second, first =
    match !captured with [ b; a ] -> (b, a) | _ -> Alcotest.fail "expected two captures"
  in
  check Alcotest.bool "recorded" true (recorded first && recorded second);
  check verdict_t "current epoch accepted" Transport.Accepted (Transport.check receiver first);
  Keychain.refresh (Transport.keychain receiver);
  check verdict_t "old epoch rejected" Transport.Rejected (Transport.check receiver second)

(* The crypto tallies of a datagram's receivers are those of receivers
   that compute everything: the same wire, multicast with its origin and
   re-sent without, counts the same MAC verifications and digest work. *)
let test_recorded_tallies_per_receiver () =
  let module Tally = Bft_crypto.Tally in
  let receive_all ~send =
    let r = make_trig () in
    let verdicts = ref [] in
    for i = 1 to 2 do
      let transport = r.transports.(i) in
      let dispatcher = Dispatcher.install r.net (Transport.node transport) in
      Dispatcher.register_default dispatcher (fun rx ->
          verdicts := (recorded rx, Transport.check transport rx) :: !verdicts)
    done;
    send r;
    let before = Tally.snapshot () in
    Engine.run r.engine;
    (Tally.diff (Tally.snapshot ()) before, !verdicts)
  in
  let multicast ?origin r wire =
    let node i = Transport.node r.transports.(i) in
    Network.multicast r.net ~src:(node 0) ~dsts:[ node 1; node 2 ] ?origin wire
  in
  let wire = ref "" in
  let with_origin, hits =
    receive_all ~send:(fun r ->
        let kc = Keychain.create ~master:"m" ~self:0 r.deployment in
        let w, origin = built ~kc ~dst:1 ~also:[ 2 ] 3L in
        wire := w;
        multicast ~origin r w)
  in
  (* The same bytes, in a deployment of the same keys. *)
  let without_origin, misses = receive_all ~send:(fun r -> multicast r !wire) in
  check Alcotest.(list (pair bool verdict_t)) "recorded, accepted"
    [ (true, Transport.Accepted); (true, Transport.Accepted) ] hits;
  check Alcotest.(list (pair bool verdict_t)) "recomputed, accepted"
    [ (false, Transport.Accepted); (false, Transport.Accepted) ] misses;
  let counts (t : Tally.snapshot) =
    [ t.Tally.mac_verify_ops; t.mac_verify_bytes; t.digest_ops; t.digest_bytes; t.mac_gen_ops ]
  in
  check Alcotest.(list int) "same tallies" (counts without_origin) (counts with_origin);
  check Alcotest.int "one verification per receiver" 2 with_origin.Tally.mac_verify_ops

(* Minor-heap words 1000 calls of [f] allocate, net of an empty loop. *)
let minor_words_per_1000 f =
  let loop g =
    g ();
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      g ()
    done;
    Gc.minor_words () -. before
  in
  loop f -. loop (fun () -> ())

let test_recorded_check_allocates_nothing () =
  let r = make_trig () in
  let receiver = r.transports.(1) in
  let kc = Keychain.create ~master:"m" ~self:0 r.deployment in
  let rxs =
    Array.init 1001 (fun i ->
        let wire, origin = built ~kc ~dst:1 (Int64.of_int (i + 1)) in
        received ~origin wire)
  in
  let next = ref 0 and accepted = ref 0 in
  check (Alcotest.float 0.0) "Transport.check" 0.0
    (minor_words_per_1000 (fun () ->
         let rx = rxs.(!next mod 1001) in
         incr next;
         if Transport.check receiver rx = Transport.Accepted then incr accepted));
  check Alcotest.int "all accepted" 1001 !accepted

(* --- client reply quorums ------------------------------------------------- *)

(* A real client over a fake effects record: no network, engine or
   transport, and timers that never fire. Hand-crafted replies go straight
   to [Client.receive], so tests can race tentative and committed replies
   against each other. *)
type crig = { c_client : Client.t; c_request_ts : int64 ref }

let make_crig () =
  let config = Config.make ~f:1 () in
  let n = config.Config.n in
  let request_ts = ref 0L in
  let sent = function
    | Message.Request r -> request_ts := r.Message.timestamp
    | _ -> ()
  in
  let env =
    {
      Env.send = (fun _ msg -> sent msg);
      multicast = (fun ~commits:_ msg -> sent msg);
      check = (fun _ -> Transport.Accepted);
      arm = (fun _ ~delay:_ _ -> ());
      cancel = ignore;
      armed = (fun _ -> false);
      after = (fun ~delay:_ _ -> ());
      charge = (fun ?cat:_ _ -> ());
      now = (fun () -> 0.0);
      cpu_now = (fun () -> 0.0);
      trace = (fun ~vtime:_ ~node:_ ?seqno:_ ?view:_ ?req_id:_ ?detail:_ _ -> ());
    }
  in
  {
    c_client = Client.create ~config ~env ~id:n ~rng:(Bft_util.Rng.of_int 9) ();
    c_request_ts = request_ts;
  }

let send_reply rig ~replica ~tentative body =
  let reply =
    {
      Message.view = 0;
      timestamp = !(rig.c_request_ts);
      client = Client.id rig.c_client;
      replica;
      tentative;
      epoch = 0;
      body;
    }
  in
  let env =
    {
      Message.sender = replica;
      msg = Message.Reply reply;
      commits = [];
      auth = { Bft_crypto.Auth.nonce = 0L; entries = [] };
    }
  in
  let wire = Message.encode_envelope env in
  Client.receive rig.c_client
    (Message.receive ~size:(Message.envelope_size env wire) wire)

let test_client_committed_beats_corrupt_tentative () =
  let rig = make_crig () in
  let got = ref None in
  Client.invoke rig.c_client (Payload.of_string "op") (fun o -> got := Some o);
  check Alcotest.bool "request sent" true
    (!(rig.c_request_ts) <> 0L);
  let winner = Payload.of_string "winner" and bogus = Payload.of_string "bogus" in
  (* A faulty replica races a corrupt tentative full reply in first. *)
  send_reply rig ~replica:3 ~tentative:true (Message.Full_result bogus);
  check Alcotest.bool "one tentative is not a quorum" true (!got = None);
  send_reply rig ~replica:0 ~tentative:false (Message.Full_result winner);
  check Alcotest.bool "one committed is not a quorum" true (!got = None);
  send_reply rig ~replica:1 ~tentative:false (Message.Full_result winner);
  match !got with
  | Some o ->
    check Alcotest.string "committed result wins, not the corrupt tentative"
      "winner" o.Client.result.Payload.data
  | None -> Alcotest.fail "f+1 committed replies should complete the op"

let test_client_tentative_upgrade_to_committed () =
  let rig = make_crig () in
  let got = ref None in
  Client.invoke rig.c_client (Payload.of_string "op") (fun o -> got := Some o);
  let winner = Payload.of_string "winner" in
  let digest = Payload.digest winner in
  send_reply rig ~replica:2 ~tentative:true (Message.Full_result winner);
  send_reply rig ~replica:1 ~tentative:true (Message.Result_digest digest);
  check Alcotest.bool "two tentative replies are not enough" true (!got = None);
  (* The same replicas commit: each reply upgrades in place rather than
     double-counting, so the tally is 2 committed out of 2 total. *)
  send_reply rig ~replica:2 ~tentative:false (Message.Full_result winner);
  check Alcotest.bool "one committed is not enough" true (!got = None);
  send_reply rig ~replica:1 ~tentative:false (Message.Result_digest digest);
  match !got with
  | Some o ->
    check Alcotest.string "full body from the upgraded replica" "winner"
      o.Client.result.Payload.data
  | None -> Alcotest.fail "f+1 committed replies should complete the op"

let test_client_tentative_strong_quorum () =
  let rig = make_crig () in
  let got = ref None in
  Client.invoke rig.c_client (Payload.of_string "op") (fun o -> got := Some o);
  let winner = Payload.of_string "winner" in
  send_reply rig ~replica:1 ~tentative:true (Message.Full_result winner);
  send_reply rig ~replica:2 ~tentative:true (Message.Result_digest (Payload.digest winner));
  check Alcotest.bool "2f tentative replies are not enough" true (!got = None);
  send_reply rig ~replica:3 ~tentative:true (Message.Result_digest (Payload.digest winner));
  match !got with
  | Some o ->
    check Alcotest.string "2f+1 tentative replies accept" "winner"
      o.Client.result.Payload.data
  | None -> Alcotest.fail "2f+1 tentative replies should complete the op"

(* --- dispatcher ------------------------------------------------------------ *)

let test_dispatcher_routes_replies () =
  let net = Network.simulation ~rng:(Bft_util.Rng.of_int 4) () in
  let engine = Network.engine net in
  let machine name = Network.add_node net ~cpu:(Cpu.create engine ()) ~name () in
  let node = machine "m" in
  let d = Dispatcher.install net node in
  let got_client = ref 0 and got_default = ref 0 in
  Dispatcher.register_client d 101 (fun _ -> incr got_client);
  Dispatcher.register_default d (fun _ -> incr got_default);
  (* A client machine: no default principal. *)
  let client_node = machine "c" in
  let client_d = Dispatcher.install net client_node in
  let got_registered = ref 0 in
  Dispatcher.register_client client_d 101 (fun _ ->
      incr got_registered);
  let send ?(dst = node) msg =
    let env = { Message.sender = 0; msg; commits = []; auth = { Bft_crypto.Auth.nonce = 0L; entries = [] } } in
    Network.send net ~src:node ~dst (Message.encode_envelope env)
  in
  let reply client =
    Message.Reply
      {
        Message.view = 0; timestamp = 1L; client; replica = 0;
        tentative = false; epoch = 0; body = Message.Result_digest (Fingerprint.of_string "r");
      }
  in
  let busy client =
    Message.Busy
      { Message.bz_view = 0; bz_timestamp = 1L; bz_client = client; bz_replica = 0; bz_queue = 0 }
  in
  send (reply 101);
  send (reply 999);
  send sample_msg;
  Network.send net ~src:node ~dst:node "garbage";
  List.iter (send ~dst:client_node) [ reply 101; busy 101; reply 999; busy 999; sample_msg ];
  Engine.run engine;
  check Alcotest.int "client reply routed" 1 !got_client;
  check Alcotest.int "unknown reply + other msgs to default" 2 !got_default;
  check Alcotest.int "garbage dropped" 1 (Dispatcher.malformed d);
  (* Without a default principal, a REPLY or BUSY for an unregistered
     client (and any other message) is dropped and counted, like garbage.
     NO-REP and BFT client machines both rely on this. *)
  check Alcotest.int "client machine: reply and busy routed" 2 !got_registered;
  check Alcotest.int "client machine: unregistered reply/busy and other msgs dropped" 3
    (Dispatcher.malformed client_d)

(* --- ownership: every simulation owns its state ---------------------------- *)

module Fs = Bft_nfs.Fs
module Nfs_service = Bft_nfs.Nfs_service
module Proto = Bft_nfs.Proto
module Trace = Bft_trace.Trace

let small_op = Service.null_op ~read_only:false ~arg_size:64 ~result_size:8

(* Whether the value [make ()] returns is garbage once [make] has returned:
   nothing outside it (no module-level table) may keep it reachable. *)
let collected make =
  let w = Weak.create 1 in
  let[@inline never] fill () = Weak.set w 0 (Some (make ())) in
  fill ();
  Gc.full_major ();
  not (Weak.check w 0)

let finished_norep_network () =
  let d =
    Norep.deploy ~rng:(Bft_util.Rng.of_int 1)
      ~install:(fun network node ->
        Norep.Server.create ~network ~node ~service:(Service.null ()) ())
      ~client_machines:[ "client" ] ~clients:2 ()
  in
  let completed = ref 0 in
  List.iter
    (fun c -> Norep.Client.invoke c small_op (fun _ -> incr completed))
    d.Norep.clients;
  Engine.run (Network.engine d.Norep.network);
  check Alcotest.int "both ops completed" 2 !completed;
  d.Norep.network

let dropped_nfs_fs () =
  let fs = Fs.create () in
  let svc = Nfs_service.create fs in
  ignore
    (svc.Service.execute ~client:100
       ~op:(Proto.encode_call (Proto.Mkdir { dir = Fs.root; name = "d"; mode = 0o755 })));
  fs

let finished_cluster_network () =
  let cluster =
    Cluster.create ~config:(Config.make ~f:1 ()) ~service:(fun _ -> Service.null ()) ()
  in
  let client = Cluster.add_client cluster in
  let completed = ref false in
  Client.invoke client small_op (fun _ -> completed := true);
  Cluster.run ~until:1.0 cluster;
  check Alcotest.bool "op completed" true !completed;
  Cluster.network cluster

let test_norep_network_collected () =
  check Alcotest.bool "finished NO-REP network collected" true
    (collected finished_norep_network)

let test_nfs_fs_collected () =
  check Alcotest.bool "dropped NFS service's file system collected" true
    (collected dropped_nfs_fs)

let test_cluster_network_collected () =
  check Alcotest.bool "finished BFT cluster network collected" true
    (collected finished_cluster_network)

(* A simulation under test: its engine, with the workload already queued,
   whether the workload is still running, and what it has produced so far,
   rendered byte-exactly (floats in hex). A BFT cluster never drains its
   event queue (replicas keep multicasting status), so a simulation is
   idle once its last operation has completed. *)
type sim = { engine : Engine.t; busy : unit -> bool; output : unit -> string }

let network_counters net =
  Printf.sprintf "sent=%d dropped=%d delivered=%d bytes=%d"
    (Network.sent_datagrams net) (Network.dropped_datagrams net)
    (Network.delivered_datagrams net) (Network.bytes_on_wire net)

let latencies l = String.concat " " (List.rev_map (Printf.sprintf "%h") l)

(* A traced BFT cluster running [ops] null operations from one client. *)
let bft_sim ~ops =
  let trace = Trace.create () in
  let cluster =
    Cluster.create ~seed:7 ~trace ~config:(Config.make ~f:1 ())
      ~service:(fun _ -> Service.null ()) ()
  in
  let client = Cluster.add_client cluster in
  let lat = ref [] in
  let rec loop n =
    if n > 0 then
      Client.invoke client small_op (fun o ->
          lat := o.Client.latency :: !lat;
          loop (n - 1))
  in
  loop ops;
  let output () =
    String.concat "\n"
      [ Trace.jsonl trace; latencies !lat; network_counters (Cluster.network cluster) ]
  in
  { engine = Cluster.engine cluster; busy = (fun () -> List.length !lat < ops); output }

(* A NO-REP server running the NFS service over its own file system, driven
   by one client through a fixed sequence of calls. *)
let norep_nfs_sim () =
  let d =
    Norep.deploy ~rng:(Bft_util.Rng.of_int 9)
      ~install:(fun network node ->
        let fs = Fs.create () in
        ignore (Norep.Server.create ~network ~node ~service:(Nfs_service.create fs) ());
        fs)
      ~client_machines:[ "client" ] ~clients:1 ~retry_timeout:0.3 ()
  in
  let client = List.hd d.Norep.clients in
  let calls =
    [
      Proto.Mkdir { dir = Fs.root; name = "d"; mode = 0o755 };
      Proto.Create { dir = 2; name = "f"; mode = 0o644 };
      Proto.Write { fh = 3; off = 0; data = Payload.of_string "interleaved" };
      Proto.Read { fh = 3; off = 0; len = 64 };
      Proto.Rename { from_dir = 2; from_name = "f"; to_dir = Fs.root; to_name = "g" };
      Proto.Readdir Fs.root;
    ]
  in
  let lat = ref [] in
  let rec loop = function
    | [] -> ()
    | call :: rest ->
      Norep.Client.invoke client (Proto.encode_call call) (fun o ->
          lat := o.Norep.Client.latency :: !lat;
          loop rest)
  in
  loop calls;
  let output () =
    String.concat "\n"
      [
        latencies !lat;
        network_counters d.Norep.network;
        Bft_crypto.Md5.to_hex (Fs.state_digest d.Norep.server);
      ]
  in
  {
    engine = Network.engine d.Norep.network;
    busy = (fun () -> List.length !lat < List.length calls);
    output;
  }

(* Fire [sim]'s next event if it is still busy; false once it is idle. *)
let step sim = sim.busy () && Engine.step sim.engine

let drain sim = while step sim do () done

(* Two different simulations stepped alternately in one process produce
   byte-for-byte what each produces alone: they share no state. The crypto
   [Tally] counters are left out of the compared output: they are the only
   cross-run state still process-global (the benchmark ledger reads them). *)
let test_interleaved_simulations () =
  let ops = 12 in
  let alone sim =
    drain sim;
    sim.output ()
  in
  let bft_alone = alone (bft_sim ~ops) in
  let nfs_alone = alone (norep_nfs_sim ()) in
  let bft = bft_sim ~ops and nfs = norep_nfs_sim () in
  let rec alternate () =
    let a = step bft in
    let b = step nfs in
    if a || b then alternate ()
  in
  alternate ();
  check Alcotest.bool "BFT ops completed" false (bft.busy ());
  check Alcotest.bool "NFS calls completed" false (nfs.busy ());
  check Alcotest.string "BFT cluster output" bft_alone (bft.output ());
  check Alcotest.string "NO-REP NFS output" nfs_alone (nfs.output ())

(* --- recovery scheduler ------------------------------------------------------ *)

let test_recovery_scheduler_rotation () =
  let config = Config.make ~f:1 ~checkpoint_interval:8 ~log_window:16 () in
  let cluster = Cluster.create ~config ~service:(fun _ -> Service.null ()) () in
  let client = Cluster.add_client cluster in
  let rec loop () =
    Client.invoke client (Service.null_op ~read_only:false ~arg_size:8 ~result_size:8)
      (fun _ -> loop ())
  in
  loop ();
  let sched =
    Recovery_scheduler.start ~engine:(Cluster.engine cluster)
      ~replicas:(Cluster.replicas cluster) ~period:0.4
  in
  Cluster.run ~until:1.0 cluster;
  Recovery_scheduler.stop sched;
  Cluster.run ~until:1.4 cluster;
  let started_after_stop = Recovery_scheduler.recoveries_started sched in
  Cluster.run ~until:2.0 cluster;
  (* one recovery per period/n = 0.1s: ~9 in the first second *)
  check Alcotest.bool "rotated through replicas" true
    (Recovery_scheduler.recoveries_started sched >= 8);
  check Alcotest.int "stop stops" started_after_stop
    (Recovery_scheduler.recoveries_started sched);
  check (Alcotest.float 1e-9) "window" 0.8 (Recovery_scheduler.window_of_vulnerability sched);
  (* every replica recovered at least once and the service kept running *)
  Array.iter
    (fun r ->
      check Alcotest.bool "replica recovered" true
        (Metrics.count (Replica.metrics r) "recovery.started" >= 1))
    (Cluster.replicas cluster)

let test_replica_dump () =
  let config = Config.make ~f:1 () in
  let cluster = Cluster.create ~config ~service:(fun _ -> Service.null ()) () in
  let dump = Replica.dump (Cluster.replica cluster 0) in
  check Alcotest.bool "mentions replica" true
    (String.length dump > 0 && String.sub dump 0 9 = "replica 0")

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "core-units"
    [
      ( "payload",
        [
          Alcotest.test_case "size model" `Quick test_payload_model;
          Alcotest.test_case "codec" `Quick test_payload_codec;
        ] );
      ( "types+config",
        [
          Alcotest.test_case "primary rotation" `Quick test_primary_rotation;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and samples" `Quick test_metrics;
          Alcotest.test_case "name-order sort and dump" `Quick
            test_metrics_sorting_and_dump;
        ] );
      ( "behavior",
        [ Alcotest.test_case "classification" `Quick test_behavior_classification ] );
      ( "merkle",
        [
          Alcotest.test_case "paginate/reassemble" `Quick
            test_merkle_paginate_reassemble;
          Alcotest.test_case "root and diff" `Quick test_merkle_root_and_diff;
          q merkle_roundtrip_prop;
        ] );
      ("log", [ q log_model_prop ]);
      ("trail", [ q trail_model_prop ]);
      ( "transport",
        [
          Alcotest.test_case "send verifies" `Quick test_transport_send_verifies;
          Alcotest.test_case "multicast" `Quick test_transport_multicast;
          Alcotest.test_case "corrupt auth rejected" `Quick
            test_transport_corrupt_auth_rejected;
          Alcotest.test_case "charges cpu" `Quick test_transport_charges_cpu;
          Alcotest.test_case "nonce window drops replays" `Quick
            test_transport_nonce_window;
          Alcotest.test_case "nonce verdicts at the edges" `Quick
            test_transport_nonce_edges;
          Alcotest.test_case "sender outside the deployment" `Quick
            test_transport_outside_sender;
          Alcotest.test_case "one multicast, one decode" `Quick
            test_multicast_decoded_once;
        ] );
      ( "recorded tags",
        [
          Alcotest.test_case "forgeries rejected" `Quick test_recorded_forgeries_rejected;
          Alcotest.test_case "replayed wire recomputes" `Quick test_replayed_wire_recomputes;
          Alcotest.test_case "old epoch rejected" `Quick test_old_epoch_rejected;
          Alcotest.test_case "tallies per receiver" `Quick test_recorded_tallies_per_receiver;
          Alcotest.test_case "check allocates nothing" `Quick
            test_recorded_check_allocates_nothing;
        ] );
      ( "client quorums",
        [
          Alcotest.test_case "committed beats corrupt tentative" `Quick
            test_client_committed_beats_corrupt_tentative;
          Alcotest.test_case "tentative upgrades to committed" `Quick
            test_client_tentative_upgrade_to_committed;
          Alcotest.test_case "tentative strong quorum" `Quick
            test_client_tentative_strong_quorum;
        ] );
      ( "dispatcher",
        [ Alcotest.test_case "routing" `Quick test_dispatcher_routes_replies ] );
      ( "ownership",
        [
          Alcotest.test_case "NO-REP network collected" `Quick
            test_norep_network_collected;
          Alcotest.test_case "NFS file system collected" `Quick
            test_nfs_fs_collected;
          Alcotest.test_case "BFT cluster network collected" `Quick
            test_cluster_network_collected;
          Alcotest.test_case "interleaved simulations" `Quick
            test_interleaved_simulations;
        ] );
      ( "recovery scheduler",
        [ Alcotest.test_case "rotation" `Quick test_recovery_scheduler_rotation ] );
      ("dump", [ Alcotest.test_case "replica dump" `Quick test_replica_dump ]);
    ]
