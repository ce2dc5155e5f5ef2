(* Tests for Bft_crypto: MD5 against the RFC 1321 suite, HMAC against
   RFC 2202, MAC tags against HMAC and fixed vectors, fingerprint framing,
   keychain epochs and MAC-vector authenticators. *)

open Bft_crypto

let check = Alcotest.check

(* --- MD5: the full RFC 1321 appendix A.5 test suite -------------------- *)

let rfc1321_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let test_md5_vectors () =
  List.iter
    (fun (input, expected) -> check Alcotest.string input expected (Md5.hex input))
    rfc1321_vectors

let test_md5_million_a () =
  (* The standard long-input vector: 1,000,000 repetitions of 'a'. *)
  check Alcotest.string "million a" "7707d6ae4e027c70eea2a935c2296f21"
    (Md5.hex (String.make 1_000_000 'a'))

let test_md5_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundary: the
     slice entry points must hash exactly the slice, wherever it sits. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let framed = "<<<" ^ s ^ ">>" in
      check Alcotest.string
        (Printf.sprintf "substring %d" n)
        (Md5.hex s)
        (Md5.to_hex (Fingerprint.of_substring framed ~off:3 ~len:n));
      check Alcotest.string
        (Printf.sprintf "bytes %d" n)
        (Md5.hex s)
        (Md5.to_hex (Fingerprint.of_bytes (Bytes.of_string framed) ~off:3 ~len:n)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 121; 127; 128; 129 ]

let test_to_hex () =
  check Alcotest.string "hex" "00ff10" (Md5.to_hex "\x00\xff\x10")

(* --- HMAC-MD5: RFC 2202 vectors ---------------------------------------- *)

let test_hmac_rfc2202 () =
  let cases =
    [
      (String.make 16 '\x0b', "Hi There", "9294727a3638bb1c13f48ef8158bfc9d");
      ("Jefe", "what do ya want for nothing?", "750c783e6ab0b503eaa86e310a5db738");
      ( String.make 16 '\xaa',
        String.make 50 '\xdd',
        "56be34521d144c88dbb8c733f0e8b3f6" );
      ( String.make 80 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd" );
      ( String.make 80 '\xaa',
        "Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
        "6f630fad67cda0ee1fb1f562db3aa53e" );
    ]
  in
  List.iter
    (fun (key, data, expected) ->
      check Alcotest.string data expected (Hmac.hex ~key data))
    cases

(* --- MAC tags ----------------------------------------------------------- *)

let test_mac_verify () =
  let tag = Mac.compute ~key:"secret" ~nonce:42L "message" in
  check Alcotest.int "tag size" Mac.tag_size (String.length tag);
  check Alcotest.bool "verifies" true (Mac.verify ~key:"secret" ~nonce:42L "message" tag);
  check Alcotest.bool "wrong key" false
    (Mac.verify ~key:"other" ~nonce:42L "message" tag);
  check Alcotest.bool "wrong nonce" false
    (Mac.verify ~key:"secret" ~nonce:43L "message" tag);
  check Alcotest.bool "wrong msg" false
    (Mac.verify ~key:"secret" ~nonce:42L "massage" tag)

let test_mac_equal_lengths () =
  check Alcotest.bool "different lengths" false (Mac.equal "abc" "abcd");
  check Alcotest.bool "equal" true (Mac.equal "abcd" "abcd")

(* Tags generated before the MD5 backend moved to the runtime's C
   implementation; any change to the tag bytes breaks the wire. *)
let test_mac_vectors () =
  List.iter
    (fun (name, key, nonce, msg, expected) ->
      check Alcotest.string name expected (Md5.to_hex (Mac.compute ~key ~nonce msg)))
    [
      ("empty message", "0123456789abcdef", 1L, "", "1a760aa0df460b4e");
      ( "hashed 80-byte key",
        String.make 80 '\xaa',
        0x0102030405060708L,
        "The quick brown fox jumps over the lazy dog",
        "6269e105f792611c" );
      ( "all-ones nonce",
        "k",
        -1L,
        String.init 200 (fun i -> Char.chr (i land 0xff)),
        "29f699fefaf5052d" );
    ]

(* Message lengths that put the inner hash input ([ipad ‖ nonce ‖ msg],
   72 bytes before [msg]) or [msg] itself on an MD5 padding edge. *)
let padding_edge_lengths =
  List.concat_map
    (fun e -> List.filter (fun n -> n >= 0) [ e - 1; e; e + 1; e - 73; e - 72; e - 71 ])
    [ 55; 56; 64; 119; 120; 128 ]

(* Every single-bit flip of a tag. *)
let bit_flips tag =
  List.init (8 * String.length tag) (fun bit ->
      let b = Bytes.of_string tag in
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      Bytes.to_string b)

(* The C session path against the OCaml HMAC reference, and its verifier
   against every near miss: keys past the 64-byte block (hashed first) and
   empty messages included. *)
let mac_is_truncated_hmac_prop =
  QCheck.Test.make ~name:"mac = truncated hmac" ~count:300
    QCheck.(
      make
        ~print:(fun (k, n, m) ->
          Printf.sprintf "key %d bytes, nonce %Ld, msg %d bytes" (String.length k) n
            (String.length m))
        Gen.(
          triple
            (string_size (oneof [ int_range 0 64; int_range 65 200 ]))
            int64
            (string_size
               (oneof [ return 0; oneofl padding_edge_lengths; int_range 0 300 ]))))
    (fun (key, nonce, msg) ->
      let nonce_le = Bytes.create 8 in
      Bytes.set_int64_le nonce_le 0 nonce;
      let tag = Mac.compute ~key ~nonce msg in
      let s = Mac.prepare key in
      tag = String.sub (Hmac.mac ~key (Bytes.to_string nonce_le ^ msg)) 0 Mac.tag_size
      && Mac.compute_with s ~nonce msg = tag
      && Mac.verify_with s ~nonce msg tag
      && List.for_all (fun t -> not (Mac.verify_with s ~nonce msg t)) (bit_flips tag)
      && (not (Mac.verify_with s ~nonce msg (String.sub tag 0 7)))
      && (not (Mac.verify_with s ~nonce msg (tag ^ "\000")))
      && not (Mac.verify_with s ~nonce:(Int64.succ nonce) msg tag))

(* --- keychain ------------------------------------------------------------ *)

(* Principals 0 .. n-1, all replicas. *)
let replicas n = Keychain.deployment ~replicas:n ~client_base:n

let test_keychain_pairwise_agreement () =
  let a = Keychain.create ~master:"m" ~self:0 (replicas 2) in
  let b = Keychain.create ~master:"m" ~self:1 (replicas 2) in
  (* The key 0 uses to send to 1 must be the key 1 expects from 0. *)
  check Alcotest.string "0->1" (Keychain.send_key a 1) (Keychain.recv_key b 0);
  check Alcotest.string "1->0" (Keychain.send_key b 0) (Keychain.recv_key a 1);
  check Alcotest.bool "directional keys differ" true
    (Keychain.send_key a 1 <> Keychain.send_key b 0)

let test_keychain_epoch_refresh () =
  let a = Keychain.create ~master:"m" ~self:0 (replicas 2) in
  let b = Keychain.create ~master:"m" ~self:1 (replicas 2) in
  let old_key = Keychain.send_key a 1 in
  Keychain.refresh b;
  (* Until 0 observes the new epoch it still uses the stale key... *)
  check Alcotest.string "stale send key" old_key (Keychain.send_key a 1);
  check Alcotest.bool "receiver rejects stale" true
    (Keychain.recv_key b 0 <> old_key);
  (* ...and after observing, they agree again. *)
  Keychain.observe_epoch a ~peer:1 (Keychain.epoch b ~peer:0);
  check Alcotest.string "fresh agreement" (Keychain.send_key a 1)
    (Keychain.recv_key b 0)

let test_keychain_stale_epoch_ignored () =
  let a = Keychain.create ~master:"m" ~self:0 (replicas 2) in
  Keychain.observe_epoch a ~peer:1 5;
  Keychain.observe_epoch a ~peer:1 3;
  let key5 =
    let b = Keychain.create ~master:"m" ~self:1 (replicas 2) in
    for _ = 1 to 5 do
      Keychain.refresh b
    done;
    Keychain.recv_key b 0
  in
  check Alcotest.string "keeps newest epoch" key5 (Keychain.send_key a 1)

(* --- authenticators ------------------------------------------------------ *)

let make_chains n =
  let d = replicas n in
  Array.init n (fun i -> Keychain.create ~master:"m" ~self:i d)

let test_auth_vector () =
  let chains = make_chains 4 in
  let auth =
    Auth.generate chains.(0) ~nonce:1L ~targets:[ 1; 2; 3 ] "payload"
  in
  for i = 1 to 3 do
    check Alcotest.bool
      (Printf.sprintf "replica %d accepts" i)
      true
      (Auth.check chains.(i) ~from:0 "payload" auth)
  done;
  (* A principal with no entry rejects. *)
  check Alcotest.bool "no entry" false (Auth.check chains.(0) ~from:0 "payload" auth)

let test_auth_rejects_tamper () =
  let chains = make_chains 2 in
  let auth = Auth.generate chains.(0) ~nonce:9L ~targets:[ 1 ] "payload" in
  check Alcotest.bool "wrong message" false
    (Auth.check chains.(1) ~from:0 "paylode" auth);
  check Alcotest.bool "wrong sender claimed" false
    (Auth.check chains.(1) ~from:1 "payload" auth)

let test_auth_corrupt () =
  let chains = make_chains 2 in
  let auth = Auth.single chains.(0) ~nonce:2L ~to_:1 "x" in
  check Alcotest.bool "valid" true (Auth.check chains.(1) ~from:0 "x" auth);
  check Alcotest.bool "corrupted fails" false
    (Auth.check chains.(1) ~from:0 "x" (Auth.corrupt auth))

let test_auth_wire_roundtrip () =
  let chains = make_chains 4 in
  let auth = Auth.generate chains.(2) ~nonce:77L ~targets:[ 0; 1; 3 ] "m" in
  let enc = Bft_util.Codec.Enc.create () in
  Auth.encode enc auth;
  let encoded = Bft_util.Codec.Enc.to_string enc in
  check Alcotest.int "wire size accounting" (Auth.wire_size auth)
    (String.length encoded);
  let decoded = Auth.decode (Bft_util.Codec.Dec.of_string encoded) in
  check Alcotest.bool "still verifies" true (Auth.check chains.(0) ~from:2 "m" decoded)

let test_auth_wire_size_all_entry_counts () =
  (* The modeled network cost must never drift from the codec: for every
     entry count, [wire_size] equals the length of the encoded bytes. *)
  let n = 8 in
  let chains = make_chains n in
  for k = 1 to n - 1 do
    let targets = List.init k (fun i -> i + 1) in
    let auth =
      Auth.generate chains.(0) ~nonce:(Int64.of_int (100 + k)) ~targets "msg"
    in
    let enc = Bft_util.Codec.Enc.create () in
    Auth.encode enc auth;
    let encoded = Bft_util.Codec.Enc.to_string enc in
    check Alcotest.int
      (Printf.sprintf "wire size with %d entries" k)
      (Auth.wire_size auth)
      (String.length encoded);
    let decoded = Auth.decode (Bft_util.Codec.Dec.of_string encoded) in
    List.iter
      (fun target ->
        check Alcotest.bool
          (Printf.sprintf "entry %d/%d verifies" target k)
          true
          (Auth.check chains.(target) ~from:0 "msg" decoded))
      targets
  done

(* [seal], the transport's one-pass form, writes the bytes of [encode]
   over [generate] (over [corrupt] of it for a forger), for every entry
   count. *)
let test_auth_seal_bytes () =
  let n = 8 in
  let chains = make_chains n in
  let bytes f =
    let enc = Bft_util.Codec.Enc.create () in
    f enc;
    Bft_util.Codec.Enc.to_string enc
  in
  for k = 0 to n - 1 do
    let targets = List.init k (fun i -> i + 1) and nonce = Int64.of_int (200 + k) in
    let auth = Auth.generate chains.(0) ~nonce ~targets "msg" in
    List.iter
      (fun (corrupt, expected) ->
        check Alcotest.string
          (Printf.sprintf "%d entries, corrupt %b" k corrupt)
          (bytes (fun enc -> Auth.encode enc expected))
          (bytes (fun enc ->
               ignore (Auth.seal enc chains.(0) ~nonce ~targets ~corrupt "msg" : Auth.origin))))
      [ (false, auth); (true, Auth.corrupt auth) ]
  done

(* Replicas 0-3 and a client principal 4. A replica's refresh retires the
   tags its replica peers computed under the old epoch until they observe
   the new one; client channels never move. *)
let test_auth_across_refresh () =
  let d = replicas 4 in
  ignore (Keychain.admit_client d : int);
  let chains = Array.init 5 (fun i -> Keychain.create ~master:"m" ~self:i d) in
  let from_replica = Auth.single chains.(0) ~nonce:1L ~to_:1 "m" in
  let from_client = Auth.single chains.(4) ~nonce:1L ~to_:1 "m" in
  check Alcotest.bool "replica tag before refresh" true
    (Auth.check chains.(1) ~from:0 "m" from_replica);
  Keychain.refresh chains.(1);
  check Alcotest.bool "old-epoch tag fails" false
    (Auth.check chains.(1) ~from:0 "m" from_replica);
  check Alcotest.bool "unobserved sender still on the old epoch" false
    (Auth.check chains.(1) ~from:0 "m" (Auth.single chains.(0) ~nonce:2L ~to_:1 "m"));
  check Alcotest.bool "client tag unaffected" true
    (Auth.check chains.(1) ~from:4 "m" from_client);
  check Alcotest.bool "fresh client tag" true
    (Auth.check chains.(1) ~from:4 "m" (Auth.single chains.(4) ~nonce:2L ~to_:1 "m"));
  Keychain.observe_epoch chains.(0) ~peer:1 (Keychain.epoch chains.(1) ~peer:0);
  check Alcotest.bool "new-epoch tag passes" true
    (Auth.check chains.(1) ~from:0 "m" (Auth.single chains.(0) ~nonce:3L ~to_:1 "m"));
  check Alcotest.bool "old-epoch tag still fails" false
    (Auth.check chains.(1) ~from:0 "m" from_replica);
  check Alcotest.bool "other receivers unaffected" true
    (Auth.check chains.(2) ~from:0 "m" (Auth.single chains.(0) ~nonce:4L ~to_:2 "m"))

(* --- shared channels --------------------------------------------------------- *)

(* Four replicas and 512 admitted clients, each of which MACs once to every
   replica and is answered: both ends of a channel read one 32-byte
   session, so the keychains cost under 100 words per principal. *)
let test_keychain_words_per_principal () =
  let replicas = 4 and clients = 512 in
  let d = Keychain.deployment ~replicas ~client_base:replicas in
  let servers = Array.init replicas (fun i -> Keychain.create ~master:"m" ~self:i d) in
  let users =
    Array.init clients (fun _ -> Keychain.create ~master:"m" ~self:(Keychain.admit_client d) d)
  in
  let verified = ref true and shared = ref true in
  Array.iter
    (fun user ->
      let c = Keychain.self user in
      Array.iteri
        (fun i server ->
          let request = Auth.single user ~nonce:1L ~to_:i "request" in
          let reply = Auth.single server ~nonce:1L ~to_:c "reply" in
          verified :=
            !verified
            && Auth.check server ~from:c "request" request
            && Auth.check user ~from:i "reply" reply;
          shared :=
            !shared
            && Keychain.send_session user i == Keychain.recv_session server c
            && Keychain.send_session server c == Keychain.recv_session user i)
        servers)
    users;
  check Alcotest.bool "every tag verifies" true !verified;
  let words = Obj.reachable_words (Obj.repr (servers, users)) in
  let per_principal = words / (replicas + clients) in
  if per_principal > 100 then
    Alcotest.failf "%d words per principal (%d in all), over 100" per_principal words;
  check Alcotest.bool "both ends hold one session" true !shared

let test_keychain_masters_never_share () =
  let d = replicas 2 in
  let a = Keychain.create ~master:"m" ~self:0 d in
  let b = Keychain.create ~master:"m" ~self:1 d in
  let stranger = Keychain.create ~master:"other" ~self:0 d in
  check Alcotest.bool "one master, one session" true
    (Keychain.send_session a 1 == Keychain.recv_session b 0);
  check Alcotest.bool "another master, another session" false
    (Keychain.send_session stranger 1 == Keychain.recv_session b 0);
  check Alcotest.bool "another master's tag fails" false
    (Auth.check b ~from:0 "m" (Auth.single stranger ~nonce:1L ~to_:1 "m"));
  check Alcotest.bool "the master's own tag passes" true
    (Auth.check b ~from:0 "m" (Auth.single a ~nonce:2L ~to_:1 "m"))

(* A keychain whose own principal is outside the deployment has no slot:
   its lookups from a replica and from a client, under its first epoch
   and after a refresh, derive its own keys per call and leave every
   stored channel as it was, so the other pairs still verify. *)
let test_keychain_outsider_keeps_nothing () =
  let d = Keychain.deployment ~replicas:4 ~client_base:4 in
  let servers = Array.init 4 (fun i -> Keychain.create ~master:"m" ~self:i d) in
  let user = Keychain.create ~master:"m" ~self:(Keychain.admit_client d) d in
  let c = Keychain.self user in
  let stored () =
    List.concat_map
      (fun i ->
        Keychain.send_session user i
        :: Keychain.recv_session user i
        :: List.map (fun j -> Keychain.send_session servers.(i) j) [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let before = stored () in
  let outsider = Keychain.create ~master:"m" ~self:(c + 1000) d in
  let own_keys = ref true in
  let lookups () =
    List.iter
      (fun peer ->
        let tag = Mac.compute ~key:(Keychain.recv_key outsider peer) ~nonce:1L "m" in
        let own = Mac.verify_with (Keychain.recv_session outsider peer) ~nonce:1L "m" tag in
        own_keys := !own_keys && own)
      [ 0; 1; 2; 3; c ]
  in
  lookups ();
  Keychain.refresh outsider;
  lookups ();
  check Alcotest.bool "the outsider's sessions are its own keys" true !own_keys;
  check Alcotest.bool "every stored channel unchanged" true
    (List.for_all2 ( == ) before (stored ()));
  let verifies = ref true in
  Array.iteri
    (fun i server ->
      Array.iteri
        (fun j peer ->
          if i <> j then
            verifies :=
              !verifies && Auth.check peer ~from:i "m" (Auth.single server ~nonce:1L ~to_:j "m"))
        servers;
      verifies :=
        !verifies
        && Auth.check server ~from:c "m" (Auth.single user ~nonce:1L ~to_:i "m")
        && Auth.check user ~from:i "m" (Auth.single server ~nonce:1L ~to_:c "m"))
    servers;
  check Alcotest.bool "the other pairs still verify" true !verifies

(* --- allocation ------------------------------------------------------------ *)

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

let test_verify_allocates_nothing () =
  let s = Mac.prepare "0123456789abcdef" in
  let msg = String.make 16 'm' in
  let tag = Mac.compute_with s ~nonce:7L msg in
  let ok = ref true in
  check (Alcotest.float 0.0) "verify_with" 0.0
    (minor_words_per_1000 (fun () -> ok := !ok && Mac.verify_with s ~nonce:7L msg tag));
  check Alcotest.bool "all verified" true !ok

let test_session_lookup_allocates_nothing () =
  (* Replicas 0-3; clients from 9, one admitted. *)
  let d = Keychain.deployment ~replicas:4 ~client_base:9 in
  ignore (Keychain.admit_client d : int);
  let kc = Keychain.create ~master:"m" ~self:0 d in
  Keychain.observe_epoch kc ~peer:1 2;
  let chains = make_chains 2 in
  let auth = Auth.single chains.(1) ~nonce:5L ~to_:0 "msg" in
  let words name f = check (Alcotest.float 0.0) name 0.0 (minor_words_per_1000 f) in
  words "send session" (fun () -> ignore (Keychain.send_session kc 1 : Mac.session));
  words "recv session" (fun () -> ignore (Keychain.recv_session kc 1 : Mac.session));
  words "client recv session" (fun () -> ignore (Keychain.recv_session kc 9 : Mac.session));
  words "auth check" (fun () -> ignore (Auth.check chains.(0) ~from:1 "msg" auth : bool))

(* A warm, accepted nonce at a receiver: the check against the sender's
   anti-replay window, then the record that slides it. *)
let test_accepted_nonce_allocates_nothing () =
  let module Nonce_window = Bft_core.Nonce_window in
  let w = Nonce_window.create () in
  Nonce_window.record w 3 1L;
  (* Boxed beforehand: only the window's own work is measured. *)
  let nonces = Array.init 1001 (fun i -> Int64.of_int (i + 2)) in
  let next = ref 0 and accepted = ref 0 in
  check (Alcotest.float 0.0) "check and record" 0.0
    (minor_words_per_1000 (fun () ->
         let nonce = nonces.(!next mod 1001) in
         incr next;
         if Nonce_window.status w 3 nonce = Nonce_window.Fresh then begin
           Nonce_window.record w 3 nonce;
           incr accepted
         end));
  check Alcotest.int "all accepted" 1001 !accepted

(* --- fingerprints --------------------------------------------------------- *)

let test_fingerprint_parts_unambiguous () =
  (* ["ab";"c"] and ["a";"bc"] must not collide (length prefixing). *)
  check Alcotest.bool "no concat collision" true
    (not (Fingerprint.equal (Fingerprint.of_parts [ "ab"; "c" ])
            (Fingerprint.of_parts [ "a"; "bc" ])))

let test_fingerprint_slices_and_builder () =
  (* The allocation-lean entry points must agree with the string ones. *)
  let s = "the quick brown fox jumps over the lazy dog" in
  check Alcotest.bool "of_substring = of_string" true
    (Fingerprint.equal
       (Fingerprint.of_substring s ~off:4 ~len:11)
       (Fingerprint.of_string (String.sub s 4 11)));
  check Alcotest.bool "of_bytes = of_string" true
    (Fingerprint.equal
       (Fingerprint.of_bytes (Bytes.of_string s) ~off:0 ~len:(String.length s))
       (Fingerprint.of_string s));
  let parts = [ "alpha"; ""; "beta-gamma" ] in
  let b = Fingerprint.create_builder () in
  List.iter (fun p -> Fingerprint.add_part b p) parts;
  check Alcotest.bool "builder = of_parts" true
    (Fingerprint.equal (Fingerprint.finish b) (Fingerprint.of_parts parts));
  (* The builder is reusable after reset. *)
  Fingerprint.reset_builder b;
  Fingerprint.add_part_bytes b (Bytes.of_string "padded-part") ~off:0 ~len:6;
  check Alcotest.bool "reset builder = of_parts" true
    (Fingerprint.equal (Fingerprint.finish b) (Fingerprint.of_parts [ "padded" ]))

let test_fingerprint_basic () =
  check Alcotest.int "size" 16 (String.length (Fingerprint.of_string "x"));
  check Alcotest.bool "equal" true
    (Fingerprint.equal (Fingerprint.of_string "x") (Fingerprint.of_string "x"));
  check Alcotest.int "zero size" 16 (String.length Fingerprint.zero)

(* The framing of [of_parts] and [builder], built by hand: each part is
   preceded by its length as a little-endian 64-bit integer. *)
let hand_framed parts =
  String.concat ""
    (List.concat_map
       (fun p ->
         let len = Bytes.create 8 in
         Bytes.set_int64_le len 0 (Int64.of_int (String.length p));
         [ Bytes.to_string len; p ])
       parts)

let test_fingerprint_vector () =
  (* Generated before the MD5 backend moved to the runtime's C
     implementation. *)
  check Alcotest.string "of_parts" "28c03012637459ed931d0eacee9f91ed"
    (Md5.to_hex (Fingerprint.of_parts [ "alpha"; ""; String.make 300 'z'; "beta" ]))

let test_builder_hand_framed () =
  (* Many part sizes fed to one builder, across MD5 block edges. *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let b = Fingerprint.create_builder () in
  List.iter
    (fun chunk ->
      let rec split off =
        if off >= String.length data then []
        else
          let len = Stdlib.min chunk (String.length data - off) in
          String.sub data off len :: split (off + len)
      in
      let parts = split 0 in
      Fingerprint.reset_builder b;
      List.iter (Fingerprint.add_part b) parts;
      check Alcotest.string
        (Printf.sprintf "chunk %d" chunk)
        (Md5.hex (hand_framed parts))
        (Md5.to_hex (Fingerprint.finish b)))
    [ 1; 3; 55; 56; 63; 64; 65; 128; 1000 ]

let test_builder_grows_then_reuses () =
  (* One part far beyond the staging buffer's initial capacity, then a
     small part on the same builder after a reset. *)
  let b = Fingerprint.create_builder () in
  let big = String.init 100_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Fingerprint.add_part b "head";
  Fingerprint.add_part_bytes b (Bytes.of_string ("xx" ^ big ^ "yy")) ~off:2
    ~len:(String.length big);
  check Alcotest.string "large part"
    (Md5.hex (hand_framed [ "head"; big ]))
    (Md5.to_hex (Fingerprint.finish b));
  Fingerprint.reset_builder b;
  Fingerprint.add_part b "small";
  check Alcotest.string "small part after reset"
    (Md5.hex (hand_framed [ "small" ]))
    (Md5.to_hex (Fingerprint.finish b))

let test_fingerprint_slice_bounds () =
  let raises name f =
    match f () with
    | (_ : Fingerprint.t) -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument _ -> ()
  in
  raises "of_substring past end" (fun () -> Fingerprint.of_substring "abc" ~off:1 ~len:5);
  raises "of_substring negative offset" (fun () ->
      Fingerprint.of_substring "abc" ~off:(-1) ~len:2);
  raises "of_bytes past end" (fun () ->
      Fingerprint.of_bytes (Bytes.of_string "abc") ~off:2 ~len:2);
  raises "of_bytes negative length" (fun () ->
      Fingerprint.of_bytes (Bytes.of_string "abc") ~off:0 ~len:(-1));
  raises "add_part_bytes past end" (fun () ->
      let b = Fingerprint.create_builder () in
      Fingerprint.add_part_bytes b (Bytes.of_string "abc") ~off:1 ~len:3;
      Fingerprint.finish b)

let builder_framing_prop =
  QCheck.Test.make ~name:"builder = hand-framed digest" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 8) (string_of_size Gen.(int_range 0 600)))
    (fun parts ->
      let b = Fingerprint.create_builder () in
      List.iteri
        (fun i p ->
          if i mod 2 = 0 then Fingerprint.add_part b p
          else
            Fingerprint.add_part_bytes b (Bytes.of_string ("#" ^ p)) ~off:1
              ~len:(String.length p))
        parts;
      Fingerprint.finish b = Md5.digest (hand_framed parts)
      && Fingerprint.of_parts parts = Md5.digest (hand_framed parts))

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "crypto"
    [
      ( "md5",
        [
          Alcotest.test_case "RFC 1321 vectors" `Quick test_md5_vectors;
          Alcotest.test_case "million-a vector" `Quick test_md5_million_a;
          Alcotest.test_case "block boundaries" `Quick test_md5_block_boundaries;
          Alcotest.test_case "to_hex" `Quick test_to_hex;
        ] );
      ("hmac", [ Alcotest.test_case "RFC 2202 vectors" `Quick test_hmac_rfc2202 ]);
      ( "mac",
        [
          Alcotest.test_case "verify and reject" `Quick test_mac_verify;
          Alcotest.test_case "length handling" `Quick test_mac_equal_lengths;
          Alcotest.test_case "tag vectors" `Quick test_mac_vectors;
          q mac_is_truncated_hmac_prop;
        ] );
      ( "keychain",
        [
          Alcotest.test_case "pairwise agreement" `Quick
            test_keychain_pairwise_agreement;
          Alcotest.test_case "epoch refresh" `Quick test_keychain_epoch_refresh;
          Alcotest.test_case "stale epoch ignored" `Quick
            test_keychain_stale_epoch_ignored;
          Alcotest.test_case "masters never share a channel" `Quick
            test_keychain_masters_never_share;
          Alcotest.test_case "an outsider keeps no channel" `Quick
            test_keychain_outsider_keeps_nothing;
        ] );
      ( "memory",
        [
          Alcotest.test_case "words per principal" `Quick
            test_keychain_words_per_principal;
        ] );
      ( "auth",
        [
          Alcotest.test_case "vector check per receiver" `Quick test_auth_vector;
          Alcotest.test_case "rejects tampering" `Quick test_auth_rejects_tamper;
          Alcotest.test_case "corrupt helper invalidates" `Quick test_auth_corrupt;
          Alcotest.test_case "wire roundtrip and size" `Quick
            test_auth_wire_roundtrip;
          Alcotest.test_case "wire size for 1..n entries" `Quick
            test_auth_wire_size_all_entry_counts;
          Alcotest.test_case "seal writes generate's bytes" `Quick test_auth_seal_bytes;
          Alcotest.test_case "round trip across refresh" `Quick
            test_auth_across_refresh;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "verify_with allocates nothing" `Quick
            test_verify_allocates_nothing;
          Alcotest.test_case "warm session lookup allocates nothing" `Quick
            test_session_lookup_allocates_nothing;
          Alcotest.test_case "accepted nonce check allocates nothing" `Quick
            test_accepted_nonce_allocates_nothing;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "parts unambiguous" `Quick
            test_fingerprint_parts_unambiguous;
          Alcotest.test_case "basics" `Quick test_fingerprint_basic;
          Alcotest.test_case "slices and builder" `Quick
            test_fingerprint_slices_and_builder;
          Alcotest.test_case "of_parts vector" `Quick test_fingerprint_vector;
          Alcotest.test_case "builder chunkings" `Quick test_builder_hand_framed;
          Alcotest.test_case "builder grows then reuses" `Quick
            test_builder_grows_then_reuses;
          Alcotest.test_case "slice bounds" `Quick test_fingerprint_slice_bounds;
          q builder_framing_prop;
        ] );
    ]
