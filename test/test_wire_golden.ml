(* Golden wire-format vectors: the exact bytes of every message type are
   pinned by digest. Any unintentional change to the wire format — field
   order, widths, tags — breaks these tests, which is the point: replicas
   of different builds must interoperate, and digests computed over
   encodings must stay stable across versions. *)

open Bft_core
module Message = Bft_core.Message
module Fingerprint = Bft_crypto.Fingerprint
module Auth = Bft_crypto.Auth
module Md5 = Bft_crypto.Md5

let check = Alcotest.check

let fp s = Fingerprint.of_string s

let sample_request =
  {
    Message.client = 1001;
    timestamp = 42L;
    read_only = false;
    full_replies = false;
    replier = 2;
    op = { Payload.data = "op-bytes"; pad = 100 };
  }

let golden =
  [
    ("request", Message.Request sample_request,
     "47fac803fdfa6d6479d3cd8b21b5751c");
    ( "pre-prepare",
      Message.Pre_prepare
        {
          Message.view = 1;
          seq = 7;
          entries =
            [ Message.Full sample_request; Message.Summary (fp "d"); Message.Null_entry ];
        },
      "8b5f2ea6cf18c493a21065780dc87739" );
    ( "prepare",
      Message.Prepare { Message.view = 1; seq = 7; digest = fp "batch"; replica = 2 },
      "a402027a6c21945c9fa5e76ce9338001" );
    ( "commit",
      Message.Commit { Message.view = 1; seq = 7; digest = fp "batch"; replica = 3 },
      "de8186fe9cf4d57748e45eb046d7d2b3" );
    ( "reply-full",
      Message.Reply
        {
          Message.view = 2;
          timestamp = 42L;
          client = 1001;
          replica = 0;
          tentative = true;
          epoch = 0;
          body = Message.Full_result (Payload.zeros 64);
        },
      "23dfc9c4ff0230adc1ec74bbd45f9921" );
    ( "reply-digest",
      Message.Reply
        {
          Message.view = 2;
          timestamp = 42L;
          client = 1001;
          replica = 1;
          tentative = false;
          epoch = 0;
          body = Message.Result_digest (fp "result");
        },
      "9b5413a5749c542b830ee9b390d762a4" );
    ( "checkpoint",
      Message.Checkpoint { Message.seq = 128; digest = fp "state"; replica = 1 },
      "5c7a6bfddeb26d03099cf5c02dc8dc92" );
    ( "view-change",
      Message.View_change
        {
          Message.next_view = 3;
          last_stable = 128;
          stable_digest = fp "stable";
          prepared = [ { Message.view = 2; seq = 129; digest = fp "p" } ];
          replica = 2;
        },
      "abf48edff325d196af7de4101150f7d4" );
    ( "new-view",
      Message.New_view
        {
          Message.view = 3;
          supporters = [ 0; 2; 3 ];
          min_s = 128;
          nv_entries =
            [ { Message.seq = 129; digest = fp "p"; entries = [ Message.Null_entry ] } ];
        },
      "e03206b3637dbe1e2177977b3b082911" );
    ( "get-state",
      Message.Get_state { Message.from_seq = 100; replica = 3 },
      "43793b3cd22679e9f0be0bef1d8c637e" );
    ( "state",
      Message.State
        {
          Message.seq = 128;
          state_digest = fp "sd";
          snapshot = { Payload.data = "snap"; pad = 1000 };
          reply_view = 2;
        },
      "413efd0132404dcddd54eb8f96161d2b" );
    ( "state-meta",
      Message.State_meta
        {
          Message.sm_seq = 128;
          sm_state_digest = fp "sd";
          sm_page_digests = [ fp "p0"; fp "p1" ];
          sm_view = 2;
        },
      "fada39386be6b33cc27c0c3588c16016" );
    ( "get-pages",
      Message.Get_pages { Message.gp_seq = 128; gp_indexes = [ 0; 3 ]; gp_replica = 1 },
      "1b6c71e59f74b4fc736b5008167674a0" );
    ( "pages",
      Message.Pages
        { Message.pg_seq = 128; pg_pages = [ (0, Payload.of_string "page0") ] },
      "01ed48c173b0d47c4a68355ea974a2c5" );
    ( "fetch-batch",
      Message.Fetch_batch { Message.fb_view = 1; fb_seq = 9; fb_replica = 2 },
      "4fdebc50d779b0a24e3dc7b550beb2c6" );
    ("new-key", Message.New_key { Message.nk_replica = 2; epoch = 3 },
     "a8eedbaff413abfe3541c2c42013cc9b");
    ( "status",
      Message.Status
        {
          Message.st_view = 3;
          st_stable = 128;
          st_committed = 140;
          st_vc = false;
          st_replica = 1;
        },
      "0eed75325acac836c3d7f0d8eb34501d" );
  ]

(* The golden digests above are regenerated with GENERATE=1; the test run
   compares against them. *)
let () =
  if Sys.getenv_opt "GENERATE" <> None then begin
    List.iter
      (fun (name, msg, _) ->
        Printf.printf "(%S, ..., %S);\n" name (Md5.hex (Message.encode_body msg)))
      golden;
    let env =
      {
        Message.sender = 7;
        msg = Message.Commit { Message.view = 0; seq = 1; digest = fp "x"; replica = 7 };
        commits = [];
        auth = { Auth.nonce = 9L; entries = [ (1, String.make 8 'T') ] };
      }
    in
    Printf.printf "envelope: %S\n" (Md5.hex (Message.encode_envelope env));
    exit 0
  end

let test_golden () =
  List.iter
    (fun (name, msg, expected) ->
      check Alcotest.string name expected (Md5.hex (Message.encode_body msg)))
    golden

let test_envelope_golden () =
  let env =
    {
      Message.sender = 7;
      msg = Message.Commit { Message.view = 0; seq = 1; digest = fp "x"; replica = 7 };
      commits = [];
      auth = { Auth.nonce = 9L; entries = [ (1, String.make 8 'T') ] };
    }
  in
  check Alcotest.string "envelope bytes"
    "a315631851c65314e95e601682982ee4"
    (Md5.hex (Message.encode_envelope env))

let test_recv_counters () =
  let busy =
    Message.Busy
      { bz_view = 0; bz_timestamp = 1L; bz_client = 2; bz_replica = 3; bz_queue = 4 }
  and ordered =
    Message.Ordered_pre_prepare
      { opp_view = 0; opp_seq = 1; opp_close = 0; opp_entries = [ Message.Null_entry ] }
  in
  List.iter
    (fun msg ->
      check Alcotest.string (Message.tag_name msg)
        ("recv." ^ Message.tag_name msg)
        (Message.recv_counter msg))
    (busy :: ordered :: List.map (fun (_, msg, _) -> msg) golden)

let () =
  Alcotest.run "wire-golden"
    [
      ( "golden",
        [
          Alcotest.test_case "message bodies" `Quick test_golden;
          Alcotest.test_case "envelope" `Quick test_envelope_golden;
          Alcotest.test_case "receive counter names" `Quick test_recv_counters;
        ] );
    ]
