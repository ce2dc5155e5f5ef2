(* Unit and property tests for Bft_util: heap, rng, stats, codec, table. *)

open Bft_util

let check = Alcotest.check

(* --- heap -------------------------------------------------------------- *)

let test_heap_basic () =
  let h = Heap.create () in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  Heap.push h ~priority:3.0 "c";
  Heap.push h ~priority:1.0 "a";
  Heap.push h ~priority:2.0 "b";
  check Alcotest.int "length" 3 (Heap.length h);
  check (Alcotest.float 0.0) "min priority" 1.0 (Heap.min_priority h);
  check Alcotest.string "pop a" "a" (Heap.pop h);
  check Alcotest.string "pop b" "b" (Heap.pop h);
  check Alcotest.string "pop c" "c" (Heap.pop h);
  check Alcotest.bool "empty again" true (Heap.is_empty h)

let test_heap_fifo_on_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~priority:1.0 v) [ "x"; "y"; "z" ];
  Heap.push h ~priority:0.5 "first";
  check Alcotest.string "lower first" "first" (Heap.pop h);
  check Alcotest.string "fifo x" "x" (Heap.pop h);
  check Alcotest.string "fifo y" "y" (Heap.pop h);
  check Alcotest.string "fifo z" "z" (Heap.pop h)

let test_heap_pop_empty () =
  let h = Heap.create () in
  Alcotest.check_raises "raises" Not_found (fun () -> ignore (Heap.pop h))

let test_heap_grows () =
  let h = Heap.create () in
  for i = 1000 downto 1 do
    Heap.push h ~priority:(float_of_int i) i
  done;
  for i = 1 to 1000 do
    check Alcotest.int "ordered" i (Heap.pop h)
  done

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order" ~count:200
    QCheck.(list (pair (float_range 0.0 1000.0) small_int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.push h ~priority:p v) items;
      let rec drain last acc =
        if Heap.is_empty h then List.rev acc
        else begin
          let p = Heap.min_priority h in
          let v = Heap.pop h in
          if p < last then QCheck.Test.fail_report "priority decreased";
          drain p (v :: acc)
        end
      in
      let out = drain neg_infinity [] in
      List.length out = List.length items)

(* Push, pop and remove-by-handle against a sorted list of
   (priority, insertion index): pops come out in that order, so equal
   priorities stay FIFO, and a removal leaves the others' order alone.
   Priorities come from a small set so ties are common. *)
type heap_op = Push of int | Pop | Remove of int

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun p -> Push p) (int_bound 3));
        (3, return Pop);
        (3, map (fun i -> Remove i) (int_bound 1000));
      ])

let heap_op_print = function
  | Push p -> Printf.sprintf "push %d" p
  | Pop -> "pop"
  | Remove i -> Printf.sprintf "remove %d" i

let heap_model_prop =
  QCheck.Test.make ~name:"heap push/pop/remove match a sorted reference" ~count:300
    QCheck.(make ~print:(Print.list heap_op_print) Gen.(list_size (int_bound 80) heap_op_gen))
    (fun ops ->
      let h = Heap.create () in
      (* reference: (priority, index) ascending; handles by index *)
      let model = ref [] and handles = ref [] and next = ref 0 in
      let ok = ref true in
      List.iter
        (function
          | Push p ->
            let key = (float_of_int p, !next) in
            handles := (!next, Heap.add h ~priority:(fst key) !next) :: !handles;
            model := List.merge compare !model [ key ];
            incr next
          | Pop -> (
            match !model with
            | [] -> if not (Heap.is_empty h) then ok := false
            | (p, i) :: rest ->
              if Heap.min_priority h <> p || Heap.pop h <> i then ok := false;
              model := rest)
          | Remove k when !next > 0 ->
            let i = k mod !next in
            let e = List.assoc i !handles in
            let queued = List.exists (fun (_, j) -> j = i) !model in
            if Heap.mem e <> queued then ok := false;
            Heap.remove h e;
            if Heap.mem e then ok := false;
            model := List.filter (fun (_, j) -> j <> i) !model
          | Remove _ -> ())
        ops;
      let rest = List.map snd !model in
      let drained = List.init (Heap.length h) (fun _ -> Heap.pop h) in
      !ok && drained = rest)

(* --- rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.of_int 7 and b = Rng.of_int 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let root = Rng.of_int 7 in
  let a = Rng.split root "a" in
  let root2 = Rng.of_int 7 in
  let a2 = Rng.split root2 "a" in
  check Alcotest.int64 "same label same stream" (Rng.bits64 a) (Rng.bits64 a2);
  let root3 = Rng.of_int 7 in
  let b = Rng.split root3 "b" in
  check Alcotest.bool "different label different stream" true
    (Rng.bits64 (Rng.split (Rng.of_int 7) "a") <> Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.of_int 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_bad_bound () =
  let rng = Rng.of_int 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.of_int 2 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.5 in
    check Alcotest.bool "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.of_int 3 in
  check Alcotest.bool "p=0" false (Rng.bernoulli rng 0.0);
  check Alcotest.bool "p=1" true (Rng.bernoulli rng 1.0)

let test_rng_bernoulli_rate () =
  let rng = Rng.of_int 4 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check Alcotest.bool "rate near 0.3" true (!hits > 2700 && !hits < 3300)

let test_rng_exponential_mean () =
  let rng = Rng.of_int 5 in
  let total = ref 0.0 in
  for _ = 1 to 20000 do
    total := !total +. Rng.exponential rng ~mean:2.0
  done;
  let mean = !total /. 20000.0 in
  check Alcotest.bool "mean near 2" true (mean > 1.9 && mean < 2.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.of_int 6 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick () =
  let rng = Rng.of_int 8 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    check Alcotest.bool "member" true (Array.mem (Rng.pick rng arr) arr)
  done

(* --- stats ------------------------------------------------------------- *)

let feps = Alcotest.float 1e-9

let test_stats_empty () =
  let s = Stats.create () in
  check Alcotest.int "count" 0 (Stats.count s);
  check Alcotest.bool "mean nan" true (Float.is_nan (Stats.mean s));
  check Alcotest.bool "percentile nan" true (Float.is_nan (Stats.percentile s 50.0))

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check feps "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-6) "stddev" 2.13808993 (Stats.stddev s);
  check feps "min" 2.0 (Stats.min s);
  check feps "max" 9.0 (Stats.max s);
  check feps "total" 40.0 (Stats.total s)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check feps "p50" 50.0 (Stats.percentile s 50.0);
  check feps "p99" 99.0 (Stats.percentile s 99.0);
  check feps "p100" 100.0 (Stats.percentile s 100.0);
  check feps "p0 clamps" 1.0 (Stats.percentile s 0.0);
  check feps "median" 50.0 (Stats.median s)

let test_stats_percentile_cache_invalidation () =
  let s = Stats.create () in
  Stats.add s 5.0;
  check feps "p50 first" 5.0 (Stats.percentile s 50.0);
  Stats.add s 1.0;
  check feps "p50 after add" 1.0 (Stats.percentile s 50.0)

let test_stats_reservoir_overflow () =
  let s = Stats.create ~capacity:16 () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i)
  done;
  (* Running aggregates stay exact past the retention bound... *)
  check Alcotest.int "count is total" 1000 (Stats.count s);
  check Alcotest.int "retention bounded" 16 (Stats.retained s);
  check Alcotest.int "capacity" 16 (Stats.capacity s);
  check feps "mean exact" 500.5 (Stats.mean s);
  check feps "min exact" 1.0 (Stats.min s);
  check feps "max exact" 1000.0 (Stats.max s);
  check feps "total exact" 500500.0 (Stats.total s);
  (* ...stddev becomes a Welford estimate and percentiles reservoir
     estimates: finite and inside the sample range. *)
  check (Alcotest.float 5.0) "stddev estimate" 288.8194361 (Stats.stddev s);
  let p50 = Stats.p50 s in
  check Alcotest.bool "p50 in range" true (p50 >= 1.0 && p50 <= 1000.0);
  check Alcotest.bool "quantiles ordered" true
    (Stats.p50 s <= Stats.p95 s && Stats.p95 s <= Stats.p99 s)

let test_stats_reservoir_deterministic () =
  let fill () =
    let s = Stats.create ~capacity:8 () in
    for i = 1 to 500 do
      Stats.add s (float_of_int (i * 7 mod 101))
    done;
    s
  in
  let a = fill () and b = fill () in
  check (Alcotest.list feps) "same retained samples" (Stats.to_list a)
    (Stats.to_list b);
  check feps "same p50" (Stats.p50 a) (Stats.p50 b)

let test_stats_exact_below_capacity () =
  (* While nothing has been dropped the accumulator is byte-identical to a
     store-everything implementation: insertion order, exact stddev. *)
  let s = Stats.create ~capacity:64 () in
  let xs = [ 9.0; 1.0; 5.0; 5.0; 2.0 ] in
  List.iter (Stats.add s) xs;
  check (Alcotest.list feps) "insertion order" xs (Stats.to_list s);
  check Alcotest.int "retained = count" (Stats.count s) (Stats.retained s);
  check (Alcotest.float 1e-9) "exact stddev" (sqrt 9.8) (Stats.stddev s)

(* --- codec ------------------------------------------------------------- *)

let roundtrip_scalar () =
  let enc = Codec.Enc.create () in
  Codec.Enc.u8 enc 255;
  Codec.Enc.u16 enc 65535;
  Codec.Enc.u32 enc 0xFFFFFFFF;
  Codec.Enc.u64 enc (-1L);
  Codec.Enc.int enc max_int;
  Codec.Enc.f64 enc 3.14159;
  Codec.Enc.bool enc true;
  Codec.Enc.bytes enc "hello";
  let dec = Codec.Dec.of_string (Codec.Enc.to_string enc) in
  check Alcotest.int "u8" 255 (Codec.Dec.u8 dec);
  check Alcotest.int "u16" 65535 (Codec.Dec.u16 dec);
  check Alcotest.int "u32" 0xFFFFFFFF (Codec.Dec.u32 dec);
  check Alcotest.int64 "u64" (-1L) (Codec.Dec.u64 dec);
  check Alcotest.int "int" max_int (Codec.Dec.int dec);
  check (Alcotest.float 0.0) "f64" 3.14159 (Codec.Dec.f64 dec);
  check Alcotest.bool "bool" true (Codec.Dec.bool dec);
  check Alcotest.string "bytes" "hello" (Codec.Dec.bytes dec);
  check Alcotest.bool "at end" true (Codec.Dec.at_end dec)

(* [contents] hands exactly-full storage over and copies otherwise; either
   way the encoder starts empty and stays usable, and a later write never
   shows through a string handed out before. *)
let test_codec_contents () =
  let enc = Codec.Enc.create ~initial:20 () in
  Codec.Enc.bytes enc (String.make 16 'a');
  let full = Codec.Enc.contents enc in
  check Alcotest.int "exactly full" 20 (String.length full);
  check Alcotest.int "empty after" 0 (Codec.Enc.length enc);
  Codec.Enc.bytes enc "bc";
  check Alcotest.string "reused after handover" "\002\000\000\000bc"
    (Codec.Enc.contents enc);
  check Alcotest.string "handed-out string unchanged"
    ("\016\000\000\000" ^ String.make 16 'a')
    full

let test_codec_option_list () =
  let enc = Codec.Enc.create () in
  Codec.Enc.option enc Codec.Enc.bytes (Some "x");
  Codec.Enc.option enc Codec.Enc.bytes None;
  Codec.Enc.list enc Codec.Enc.int [ 1; 2; 3 ];
  let dec = Codec.Dec.of_string (Codec.Enc.to_string enc) in
  check (Alcotest.option Alcotest.string) "some" (Some "x")
    (Codec.Dec.option dec Codec.Dec.bytes);
  check (Alcotest.option Alcotest.string) "none" None
    (Codec.Dec.option dec Codec.Dec.bytes);
  check (Alcotest.list Alcotest.int) "list" [ 1; 2; 3 ]
    (Codec.Dec.list dec Codec.Dec.int)

let test_codec_truncation () =
  let dec = Codec.Dec.of_string "\x01" in
  Alcotest.check_raises "truncated" (Codec.Decode_error "truncated input: need 4 bytes at 0, have 1")
    (fun () -> ignore (Codec.Dec.u32 dec))

let test_codec_bad_tags () =
  let check_raises_any label f =
    match f () with
    | exception Codec.Decode_error _ -> ()
    | _ -> Alcotest.fail (label ^ ": expected Decode_error")
  in
  check_raises_any "bad bool" (fun () -> Codec.Dec.bool (Codec.Dec.of_string "\x07"));
  check_raises_any "bad option" (fun () ->
      Codec.Dec.option (Codec.Dec.of_string "\x07") Codec.Dec.u8);
  check_raises_any "absurd list" (fun () ->
      Codec.Dec.list (Codec.Dec.of_string "\xff\xff\xff\x7f") Codec.Dec.u8);
  check_raises_any "trailing" (fun () ->
      Codec.Dec.expect_end (Codec.Dec.of_string "x"))

let test_codec_negative_int_rejected () =
  let enc = Codec.Enc.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Enc.int: negative") (fun () ->
      Codec.Enc.int enc (-1))

let codec_string_roundtrip_prop =
  QCheck.Test.make ~name:"codec bytes roundtrip" ~count:300 QCheck.string (fun s ->
      Codec.roundtrip_check Codec.Enc.bytes Codec.Dec.bytes s)

let codec_int_list_roundtrip_prop =
  QCheck.Test.make ~name:"codec int list roundtrip" ~count:300
    QCheck.(list small_nat)
    (fun l ->
      Codec.roundtrip_check
        (fun enc l -> Codec.Enc.list enc Codec.Enc.int l)
        (fun dec -> Codec.Dec.list dec Codec.Dec.int)
        l)

(* --- table ------------------------------------------------------------- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let t =
    Table.create ~title:"T" ~columns:[ ("a", Table.Left); ("b", Table.Right) ]
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "long"; "22" ];
  Table.add_separator t;
  let rendered = Table.render t in
  check Alcotest.bool "contains title" true (contains rendered "== T ==");
  check Alcotest.bool "contains row" true (contains rendered "long")

let test_table_arity () =
  let t = Table.create ~title:"T" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  check Alcotest.string "float" "1.5" (Table.cell_f 1.5);
  check Alcotest.string "nan" "-" (Table.cell_f nan);
  check Alcotest.string "pct" "+14.0%" (Table.cell_pct 0.14);
  check Alcotest.string "int" "7" (Table.cell_i 7)

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20010701 |]) in
  Alcotest.run "util"
    [
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "fifo on equal priorities" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "pop empty raises" `Quick test_heap_pop_empty;
          Alcotest.test_case "grows past initial capacity" `Quick test_heap_grows;
          q heap_sorted_prop;
          q heap_model_prop;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split labels" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_bad_bound;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "pick member" `Quick test_rng_pick;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "percentile cache invalidation" `Quick
            test_stats_percentile_cache_invalidation;
          Alcotest.test_case "reservoir overflow" `Quick
            test_stats_reservoir_overflow;
          Alcotest.test_case "reservoir deterministic" `Quick
            test_stats_reservoir_deterministic;
          Alcotest.test_case "exact below capacity" `Quick
            test_stats_exact_below_capacity;
        ] );
      ( "codec",
        [
          Alcotest.test_case "scalar roundtrip" `Quick roundtrip_scalar;
          Alcotest.test_case "option and list" `Quick test_codec_option_list;
          Alcotest.test_case "contents" `Quick test_codec_contents;
          Alcotest.test_case "truncation" `Quick test_codec_truncation;
          Alcotest.test_case "bad tags" `Quick test_codec_bad_tags;
          Alcotest.test_case "negative int rejected" `Quick
            test_codec_negative_int_rejected;
          q codec_string_roundtrip_prop;
          q codec_int_list_roundtrip_prop;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
