(* Wire-format tests: every message type round-trips; digests are canonical;
   modeled padding is accounted; envelopes authenticate end to end. *)

open Bft_core
module Message = Bft_core.Message
module Fingerprint = Bft_crypto.Fingerprint
module Auth = Bft_crypto.Auth

let check = Alcotest.check

let sample_request ?(pad = 0) ?(read_only = false) () =
  {
    Message.client = 1001;
    timestamp = 42L;
    read_only;
    full_replies = false;
    replier = 2;
    op = { Payload.data = "operation-bytes"; pad };
  }

let roundtrip msg =
  let body = Message.encode_body msg in
  let env =
    { Message.sender = 3; msg; commits = []; auth = { Auth.nonce = 1L; entries = [] } }
  in
  let wire = Message.encode_envelope env in
  let decoded = Message.decode_envelope wire in
  check Alcotest.string "body stable" body (Message.encode_body decoded.Message.msg);
  check Alcotest.int "sender" 3 decoded.Message.sender

let test_roundtrip_request () = roundtrip (Message.Request (sample_request ()))

let test_roundtrip_padded_request () =
  let msg = Message.Request (sample_request ~pad:4096 ()) in
  roundtrip msg;
  check Alcotest.int "padding" 4096 (Message.padding msg)

let test_roundtrip_pre_prepare () =
  roundtrip
    (Message.Pre_prepare
       {
         Message.view = 2;
         seq = 17;
         entries =
           [
             Message.Full (sample_request ());
             Message.Summary (Fingerprint.of_string "d");
             Message.Null_entry;
           ];
       })

let test_roundtrip_prepare_commit () =
  let d = Fingerprint.of_string "batch" in
  roundtrip (Message.Prepare { Message.view = 1; seq = 5; digest = d; replica = 2 });
  roundtrip (Message.Commit { Message.view = 1; seq = 5; digest = d; replica = 3 })

let test_roundtrip_reply () =
  roundtrip
    (Message.Reply
       {
         Message.view = 4;
         timestamp = 9L;
         client = 1002;
         replica = 1;
         tentative = true;
         epoch = 0;
         body = Message.Full_result (Payload.zeros 512);
       });
  roundtrip
    (Message.Reply
       {
         Message.view = 4;
         timestamp = 9L;
         client = 1002;
         replica = 1;
         tentative = false;
         epoch = 0;
         body = Message.Result_digest (Fingerprint.of_string "r");
       })

let test_roundtrip_checkpoint () =
  roundtrip
    (Message.Checkpoint
       { Message.seq = 128; digest = Fingerprint.of_string "s"; replica = 0 })

let test_roundtrip_view_change () =
  roundtrip
    (Message.View_change
       {
         Message.next_view = 3;
         last_stable = 128;
         stable_digest = Fingerprint.of_string "st";
         prepared =
           [
             { Message.view = 2; seq = 129; digest = Fingerprint.of_string "a" };
             { Message.view = 1; seq = 130; digest = Fingerprint.of_string "b" };
           ];
         replica = 2;
       })

let test_roundtrip_new_view () =
  roundtrip
    (Message.New_view
       {
         Message.view = 3;
         supporters = [ 0; 2; 3 ];
         min_s = 128;
         nv_entries =
           [
             {
               Message.seq = 129;
               digest = Fingerprint.of_string "a";
               entries = [ Message.Full (sample_request ()) ];
             };
             { Message.seq = 130; digest = Fingerprint.of_string "b"; entries = [] };
           ];
       })

let test_roundtrip_state_messages () =
  roundtrip (Message.Get_state { Message.from_seq = 12; replica = 1 });
  roundtrip
    (Message.State
       {
         Message.seq = 128;
         state_digest = Fingerprint.of_string "sd";
         snapshot = { Payload.data = "snap"; pad = 1000 };
         reply_view = 2;
       });
  roundtrip (Message.Fetch_batch { Message.fb_view = 1; fb_seq = 3; fb_replica = 2 });
  roundtrip (Message.New_key { Message.nk_replica = 1; epoch = 4 })

let test_roundtrip_busy () =
  let msg =
    Message.Busy
      {
        Message.bz_view = 3;
        bz_timestamp = 99L;
        bz_client = 1001;
        bz_replica = 2;
        bz_queue = 17;
      }
  in
  roundtrip msg;
  check Alcotest.int "no padding" 0 (Message.padding msg);
  check Alcotest.string "tag name" "busy" (Message.tag_name msg)

let test_envelope_with_commits () =
  let d = Fingerprint.of_string "x" in
  let commits =
    [
      { Message.view = 0; seq = 1; digest = d; replica = 2 };
      { Message.view = 0; seq = 2; digest = d; replica = 2 };
    ]
  in
  let env =
    {
      Message.sender = 2;
      msg = Message.Prepare { Message.view = 0; seq = 3; digest = d; replica = 2 };
      commits;
      auth = { Auth.nonce = 5L; entries = [] };
    }
  in
  let decoded = Message.decode_envelope (Message.encode_envelope env) in
  check Alcotest.int "commits carried" 2 (List.length decoded.Message.commits)

let test_request_digest_ignores_delivery_hints () =
  let base = sample_request () in
  let d1 = Message.request_digest base in
  let d2 =
    Message.request_digest { base with Message.full_replies = true; replier = -1 }
  in
  check Alcotest.bool "same digest" true (Fingerprint.equal d1 d2);
  let d3 = Message.request_digest { base with Message.timestamp = 43L } in
  check Alcotest.bool "timestamp matters" false (Fingerprint.equal d1 d3);
  let d4 = Message.request_digest { base with Message.read_only = true } in
  check Alcotest.bool "read-only matters" false (Fingerprint.equal d1 d4)

let test_batch_digest () =
  let e1 = Message.Full (sample_request ()) in
  let e2 = Message.Null_entry in
  let d = Message.batch_digest [ e1; e2 ] in
  check Alcotest.bool "order matters" false
    (Fingerprint.equal d (Message.batch_digest [ e2; e1 ]));
  check Alcotest.bool "summary matches full" true
    (Fingerprint.equal
       (Message.entry_digest
          (Message.Summary (Message.request_digest (sample_request ()))))
       (Message.entry_digest e1))

let test_padding_accounting () =
  let pp =
    Message.Pre_prepare
      {
        Message.view = 0;
        seq = 1;
        entries =
          [
            Message.Full (sample_request ~pad:100 ());
            Message.Full (sample_request ~pad:28 ());
          ];
      }
  in
  check Alcotest.int "pre-prepare sums" 128 (Message.padding pp);
  check Alcotest.int "prepare zero" 0
    (Message.padding
       (Message.Prepare
          { Message.view = 0; seq = 1; digest = Fingerprint.zero; replica = 0 }));
  check Alcotest.int "reply full" 77
    (Message.padding
       (Message.Reply
          {
            Message.view = 0;
            timestamp = 1L;
            client = 5;
            replica = 0;
            tentative = false;
            epoch = 0;
            body = Message.Full_result (Payload.zeros 77);
          }))

let test_decode_garbage () =
  (match Message.decode_envelope "garbage!" with
  | exception Bft_util.Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  match Message.decode_envelope "" with
  | exception Bft_util.Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "empty accepted"

let test_prefix_covers_commits () =
  (* The authenticator must cover the piggybacked commits: changing the
     commit list changes the authenticated prefix. *)
  let d = Fingerprint.of_string "x" in
  let msg = Message.Commit { Message.view = 0; seq = 1; digest = d; replica = 2 } in
  let c = { Message.view = 0; seq = 2; digest = d; replica = 2 } in
  let prefix commits =
    let enc = Bft_util.Codec.Enc.create () in
    Message.encode_prefix_into enc ~sender:2 ~msg ~commits;
    Bft_util.Codec.Enc.to_string enc
  in
  check Alcotest.bool "prefix differs" true (prefix [ c ] <> prefix [])

let request_gen =
  QCheck.Gen.(
    map
      (fun (client, ts, ro, data, pad) ->
        {
          Message.client = 1000 + client;
          timestamp = Int64.of_int ts;
          read_only = ro;
          full_replies = false;
          replier = client mod 4;
          op = { Payload.data; pad };
        })
      (tup5 (int_bound 100) (int_bound 10000) bool
         (string_size (int_bound 64))
         (int_bound 10000)))

let request_roundtrip_prop =
  QCheck.Test.make ~name:"random requests roundtrip" ~count:200
    (QCheck.make request_gen) (fun r ->
      let msg = Message.Request r in
      let env =
        {
          Message.sender = 0;
          msg;
          commits = [];
          auth = { Auth.nonce = 0L; entries = [] };
        }
      in
      let decoded = Message.decode_envelope (Message.encode_envelope env) in
      match decoded.Message.msg with
      | Message.Request r' ->
        r'.Message.client = r.Message.client
        && r'.Message.timestamp = r.Message.timestamp
        && r'.Message.read_only = r.Message.read_only
        && Payload.equal r'.Message.op r.Message.op
        && Fingerprint.equal (Message.request_digest r') (Message.request_digest r)
      | _ -> false)

(* --- one envelope writer ------------------------------------------------ *)

let digest_gen = QCheck.Gen.(map Fingerprint.of_string (string_size (int_bound 8)))

let commit_gen =
  QCheck.Gen.(
    map
      (fun (view, seq, digest, replica) -> { Message.view; seq; digest; replica })
      (quad (int_bound 8) (int_bound 1000) digest_gen (int_bound 3)))

(* An envelope as a sender hands it over: the transport supplies [auth]. *)
let envelope_gen =
  QCheck.Gen.(
    map3
      (fun sender msg commits ->
        { Message.sender; msg; commits; auth = { Auth.nonce = 0L; entries = [] } })
      (int_bound 3)
      (oneof
         [
           map (fun r -> Message.Request r) request_gen;
           map
             (fun (c : Message.commit) ->
               Message.Prepare
                 { view = c.view; seq = c.seq; digest = c.digest; replica = c.replica })
             commit_gen;
           map (fun c -> Message.Commit c) commit_gen;
           map
             (fun (c : Message.commit) ->
               Message.Checkpoint { seq = c.seq; digest = c.digest; replica = c.replica })
             commit_gen;
         ])
      (list_size (int_bound 3) commit_gen))

(* The datagrams a [Transport] puts on the network for [env], captured by a
   bare handler on the receiving node. *)
let transport_datagrams (env : Message.envelope) =
  let module Network = Bft_net.Network in
  let net = Network.simulation ~rng:(Bft_util.Rng.of_int 1) () in
  let engine = Network.engine net in
  let node name = Network.add_node net ~cpu:(Bft_sim.Cpu.create engine ()) ~name () in
  let src = node "sender" and dst = node "receiver" in
  let captured = ref [] in
  Network.set_handler net dst (fun ~src:_ dgram ->
      captured := dgram.Network.wire :: !captured);
  let keychain =
    Bft_crypto.Keychain.create ~master:"m" ~self:env.sender
      (Bft_crypto.Keychain.deployment ~replicas:4 ~client_base:4)
  in
  let transport = Transport.create net ~keychain ~node:src () in
  Transport.multicast transport ~commits:env.commits
    ~dsts:[ { Transport.principal = (env.sender + 1) mod 4; node = dst } ]
    env.msg;
  Bft_sim.Engine.run engine;
  !captured

let transport_wire_prop =
  QCheck.Test.make ~name:"transport datagram is encode_envelope" ~count:200
    (QCheck.make envelope_gen) (fun env ->
      match transport_datagrams env with
      | [ wire ] ->
        let auth = (Message.decode_envelope wire).Message.auth in
        String.equal wire (Message.encode_envelope { env with Message.auth })
      | _ -> false)

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "message"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "request" `Quick test_roundtrip_request;
          Alcotest.test_case "padded request" `Quick test_roundtrip_padded_request;
          Alcotest.test_case "pre-prepare" `Quick test_roundtrip_pre_prepare;
          Alcotest.test_case "prepare/commit" `Quick test_roundtrip_prepare_commit;
          Alcotest.test_case "reply" `Quick test_roundtrip_reply;
          Alcotest.test_case "checkpoint" `Quick test_roundtrip_checkpoint;
          Alcotest.test_case "view-change" `Quick test_roundtrip_view_change;
          Alcotest.test_case "new-view" `Quick test_roundtrip_new_view;
          Alcotest.test_case "state transfer" `Quick test_roundtrip_state_messages;
          Alcotest.test_case "busy" `Quick test_roundtrip_busy;
          Alcotest.test_case "piggybacked commits" `Quick test_envelope_with_commits;
          q request_roundtrip_prop;
        ] );
      ( "digests",
        [
          Alcotest.test_case "delivery hints excluded" `Quick
            test_request_digest_ignores_delivery_hints;
          Alcotest.test_case "batch digest" `Quick test_batch_digest;
        ] );
      ( "sizes",
        [ Alcotest.test_case "padding accounting" `Quick test_padding_accounting ] );
      ( "robustness",
        [
          Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
          Alcotest.test_case "auth covers commits" `Quick test_prefix_covers_commits;
          q transport_wire_prop;
        ] );
    ]
