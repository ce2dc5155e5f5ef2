module Fingerprint = Bft_crypto.Fingerprint
module Dense = Bft_util.Dense

let dsize = Fingerprint.size

type group = {
  mutable digests : Bytes.t;  (* the digest finalized first at seq s, at s * dsize *)
  mutable written : Bytes.t;  (* bit s: a digest is at seq s *)
}

let group () = { digests = Bytes.empty; written = Bytes.empty }

let written g seq =
  let byte = seq lsr 3 in
  byte < Bytes.length g.written
  && Bytes.get_uint8 g.written byte land (1 lsl (seq land 7)) <> 0

let matches g seq d =
  let off = seq * dsize in
  let rec from i =
    i = dsize || (Char.equal (Bytes.get g.digests (off + i)) d.[i] && from (i + 1))
  in
  from 0

(* The first writer of a seq sets its digest for the group. *)
let claim g seq d =
  let byte = seq lsr 3 in
  g.written <- Dense.grow_bytes g.written (byte + 1);
  Bytes.set_uint8 g.written byte (Bytes.get_uint8 g.written byte lor (1 lsl (seq land 7)));
  g.digests <- Dense.grow_bytes g.digests ((seq + 1) * dsize);
  Bytes.blit_string d 0 g.digests (seq * dsize) dsize

(* Two ints per record, oldest first: [(first, last)] for a run of
   consecutive seqs whose digests are the group's, [(seq, -1 - k)] for a
   seq whose digest differs from the group's and is the [k]-th in [own]. *)
type t = {
  group : group;
  mutable records : int array;
  mutable len : int;  (* ints used in [records] *)
  mutable own : Bytes.t;  (* divergent digests, [dsize] bytes each *)
  mutable own_len : int;  (* digests in [own] *)
}

let create group = { group; records = [||]; len = 0; own = Bytes.empty; own_len = 0 }

let push t a b =
  t.records <- Dense.grow t.records (t.len + 1) 0;
  t.records.(t.len) <- a;
  t.records.(t.len + 1) <- b;
  t.len <- t.len + 2

let append t seq d =
  let g = t.group in
  if not (written g seq) then claim g seq d;
  if matches g seq d then begin
    let n = t.len in
    if n > 0 && t.records.(n - 1) >= 0 && t.records.(n - 1) = seq - 1 then
      t.records.(n - 1) <- seq
    else push t seq seq
  end
  else begin
    t.own <- Dense.grow_bytes t.own ((t.own_len + 1) * dsize);
    Bytes.blit_string d 0 t.own (t.own_len * dsize) dsize;
    push t seq (-1 - t.own_len);
    t.own_len <- t.own_len + 1
  end

(* Records keep their order, so the divergent digests kept stay in order
   too and move down in place. *)
let trim t seq =
  let kept = ref 0 and own_kept = ref 0 in
  for i = 0 to (t.len / 2) - 1 do
    let first = t.records.(2 * i) and last = t.records.((2 * i) + 1) in
    if first <= seq then begin
      t.records.(2 * !kept) <- first;
      t.records.((2 * !kept) + 1) <-
        (if last >= 0 then Int.min last seq
         else begin
           Bytes.blit t.own ((-1 - last) * dsize) t.own (!own_kept * dsize) dsize;
           incr own_kept;
           - !own_kept
         end);
      incr kept
    end
  done;
  t.len <- 2 * !kept;
  t.own_len <- !own_kept

let to_list t =
  let acc = ref [] in
  for i = (t.len / 2) - 1 downto 0 do
    let first = t.records.(2 * i) and last = t.records.((2 * i) + 1) in
    if last >= 0 then
      for seq = last downto first do
        acc := (seq, Bytes.sub_string t.group.digests (seq * dsize) dsize) :: !acc
      done
    else acc := (first, Bytes.sub_string t.own ((-1 - last) * dsize) dsize) :: !acc
  done;
  !acc
