type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let of_int seed = create (Int64.of_int seed)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(* Derivation folds the label into the state with a simple 64-bit hash, so
   distinct labels give decorrelated streams. *)
let split t label =
  let h = ref (bits64 t) in
  String.iter
    (fun c -> h := mix64 (Int64.add (Int64.mul !h 31L) (Int64.of_int (Char.code c))))
    label;
  create !h

(* Pure variant of [split]: derives the child from the parent's current
   state without advancing it, so the derivation cannot perturb sibling
   streams. Two forks of an untouched parent with the same label return
   identical streams — callers must use distinct labels. *)
let fork t label =
  let h = ref (mix64 (Int64.add t.state golden_gamma)) in
  String.iter
    (fun c -> h := mix64 (Int64.add (Int64.mul !h 31L) (Int64.of_int (Char.code c))))
    label;
  create !h

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let float t bound =
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
