(* Bounded-memory sample accumulator. Up to [capacity] samples are retained
   verbatim, so every summary below is exact for small sample sets (the
   benchmark harness stays well under the default capacity and its golden
   outputs depend on that). Past the capacity the accumulator switches to
   Vitter's algorithm R with a private deterministic xorshift generator:
   mean/min/max/total stay exact (running aggregates, insertion order),
   stddev falls back to a Welford accumulator, and percentiles become
   reservoir estimates. *)

type t = {
  mutable samples : float array; (* retained (reservoir) samples *)
  mutable size : int; (* retained count, <= capacity *)
  mutable n : int; (* total samples ever added *)
  mutable sum : float; (* running total, insertion order *)
  mutable minv : float;
  mutable maxv : float;
  mutable mean_w : float; (* Welford running mean *)
  mutable m2 : float; (* Welford sum of squared deviations *)
  mutable rng : int64; (* xorshift64* state; fixed seed, per-instance *)
  capacity : int;
  mutable sorted : float array option; (* cache invalidated by [add] *)
}

let default_capacity = 8192

let rng_seed = 0x9E3779B97F4A7C15L

let create ?(capacity = default_capacity) () =
  if capacity < 2 then invalid_arg "Stats.create: capacity";
  {
    samples = Array.make 16 0.0;
    size = 0;
    n = 0;
    sum = 0.0;
    minv = infinity;
    maxv = neg_infinity;
    mean_w = 0.0;
    m2 = 0.0;
    rng = rng_seed;
    capacity;
    sorted = None;
  }

(* xorshift64*: deterministic, no global state, good enough for reservoir
   slot selection. *)
let rand_below t bound =
  let s = t.rng in
  let s = Int64.logxor s (Int64.shift_left s 13) in
  let s = Int64.logxor s (Int64.shift_right_logical s 7) in
  let s = Int64.logxor s (Int64.shift_left s 17) in
  t.rng <- s;
  let mixed = Int64.mul s 0x2545F4914F6CDD1DL in
  let r = Int64.to_int (Int64.shift_right_logical mixed 2) land max_int in
  r mod bound

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  if x < t.minv then t.minv <- x;
  if x > t.maxv then t.maxv <- x;
  let delta = x -. t.mean_w in
  t.mean_w <- t.mean_w +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean_w));
  if t.size < t.capacity then begin
    if t.size = Array.length t.samples then begin
      let bigger =
        Array.make (Stdlib.min t.capacity (2 * t.size)) 0.0
      in
      Array.blit t.samples 0 bigger 0 t.size;
      t.samples <- bigger
    end;
    t.samples.(t.size) <- x;
    t.size <- t.size + 1;
    t.sorted <- None
  end
  else begin
    (* Algorithm R: replace a random slot with probability capacity/n. *)
    let j = rand_below t t.n in
    if j < t.capacity then begin
      t.samples.(j) <- x;
      t.sorted <- None
    end
  end

let count t = t.n

let retained t = t.size

let capacity t = t.capacity

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.samples.(i)
  done;
  !acc

let total t = t.sum

let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else if t.n = t.size then begin
    (* Nothing dropped: exact two-pass over the retained samples, which is
       byte-identical to the pre-reservoir implementation. *)
    let m = mean t in
    let ss = fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 t in
    sqrt (ss /. float_of_int (t.size - 1))
  end
  else sqrt (t.m2 /. float_of_int (t.n - 1))

let min t = if t.n = 0 then nan else t.minv

let max t = if t.n = 0 then nan else t.maxv

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.sub t.samples 0 t.size in
    Array.sort compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  if t.size = 0 then nan
  else begin
    let a = sorted t in
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.size)) in
    a.(Stdlib.max 0 (Stdlib.min (t.size - 1) (rank - 1)))
  end

let median t = percentile t 50.0

let p50 = median

let p95 t = percentile t 95.0

let p99 t = percentile t 99.0

let to_list t = Array.to_list (Array.sub t.samples 0 t.size)

(* --- streaming quantiles -------------------------------------------- *)

(* P² (Jain & Chlamtac, CACM 1985): one quantile tracked with five markers
   in O(1) memory. Deterministic — marker updates are pure arithmetic on
   the observation stream, no randomness — so same stream, same estimate.
   Exact while fewer than five observations have arrived (sorted buffer). *)
module P2 = struct
  type t = {
    q : float; (* target quantile in (0,1) *)
    heights : float array; (* marker heights h1..h5 *)
    positions : float array; (* actual marker positions n1..n5 (1-based) *)
    desired : float array; (* desired marker positions n'1..n'5 *)
    increments : float array; (* dn'1..dn'5 *)
    mutable n : int; (* observations so far *)
  }

  let create ~q () =
    if not (q > 0.0 && q < 1.0) then invalid_arg "Stats.P2.create: q";
    {
      q;
      heights = Array.make 5 0.0;
      positions = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      desired = [| 1.0; 1.0 +. (2.0 *. q); 1.0 +. (4.0 *. q); 3.0 +. (2.0 *. q); 5.0 |];
      increments = [| 0.0; q /. 2.0; q; (1.0 +. q) /. 2.0; 1.0 |];
      n = 0;
    }

  let count t = t.n

  let quantile_of_sorted a q =
    (* Nearest-rank, matching [percentile] above. *)
    let n = Array.length a in
    if n = 0 then nan
    else begin
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
    end

  (* Piecewise-parabolic prediction for marker i moving by d (+1 or -1);
     falls back to linear when the parabola would leave [h_{i-1}, h_{i+1}]. *)
  let adjust t i d =
    let h = t.heights and p = t.positions in
    let d = float_of_int d in
    let num =
      d /. (p.(i + 1) -. p.(i - 1))
      *. (((p.(i) -. p.(i - 1) +. d) *. (h.(i + 1) -. h.(i)) /. (p.(i + 1) -. p.(i)))
         +. ((p.(i + 1) -. p.(i) -. d) *. (h.(i) -. h.(i - 1)) /. (p.(i) -. p.(i - 1))))
    in
    let candidate = h.(i) +. num in
    if h.(i - 1) < candidate && candidate < h.(i + 1) then h.(i) <- candidate
    else
      (* linear fallback towards the neighbour in direction d *)
      h.(i) <-
        h.(i)
        +. (d *. (h.(i + int_of_float d) -. h.(i))
           /. (p.(i + int_of_float d) -. p.(i)));
    p.(i) <- p.(i) +. d

  let add t x =
    if t.n < 5 then begin
      t.heights.(t.n) <- x;
      t.n <- t.n + 1;
      if t.n = 5 then Array.sort compare t.heights
    end
    else begin
      let h = t.heights and p = t.positions in
      (* cell k of the new observation, extending extremes as needed *)
      let k =
        if x < h.(0) then begin
          h.(0) <- x;
          0
        end
        else if x >= h.(4) then begin
          h.(4) <- x;
          3
        end
        else begin
          let k = ref 0 in
          for i = 1 to 3 do
            if h.(i) <= x then k := i
          done;
          !k
        end
      in
      for i = k + 1 to 4 do
        p.(i) <- p.(i) +. 1.0
      done;
      for i = 0 to 4 do
        t.desired.(i) <- t.desired.(i) +. t.increments.(i)
      done;
      (* nudge the middle markers towards their desired positions *)
      for i = 1 to 3 do
        let d = t.desired.(i) -. p.(i) in
        if
          (d >= 1.0 && p.(i + 1) -. p.(i) > 1.0)
          || (d <= -1.0 && p.(i - 1) -. p.(i) < -1.0)
        then adjust t i (if d >= 1.0 then 1 else -1)
      done;
      t.n <- t.n + 1
    end

  let quantile t =
    if t.n = 0 then nan
    else if t.n < 5 then begin
      let a = Array.sub t.heights 0 t.n in
      Array.sort compare a;
      quantile_of_sorted a t.q
    end
    else t.heights.(2)
end

(* Fixed bank of P² estimators for the SLO quantiles the monitor tracks,
   plus exact running min/max/mean (cheap and handy in gauge tables). *)
module Sketch = struct
  type t = {
    sk_p50 : P2.t;
    sk_p95 : P2.t;
    sk_p99 : P2.t;
    mutable sk_n : int;
    mutable sk_sum : float;
    mutable sk_min : float;
    mutable sk_max : float;
  }

  let create () =
    {
      sk_p50 = P2.create ~q:0.5 ();
      sk_p95 = P2.create ~q:0.95 ();
      sk_p99 = P2.create ~q:0.99 ();
      sk_n = 0;
      sk_sum = 0.0;
      sk_min = infinity;
      sk_max = neg_infinity;
    }

  let add t x =
    P2.add t.sk_p50 x;
    P2.add t.sk_p95 x;
    P2.add t.sk_p99 x;
    t.sk_n <- t.sk_n + 1;
    t.sk_sum <- t.sk_sum +. x;
    if x < t.sk_min then t.sk_min <- x;
    if x > t.sk_max then t.sk_max <- x

  let count t = t.sk_n

  let mean t = if t.sk_n = 0 then nan else t.sk_sum /. float_of_int t.sk_n

  let min t = if t.sk_n = 0 then nan else t.sk_min

  let max t = if t.sk_n = 0 then nan else t.sk_max

  (* The estimators run independently and can cross on a tight tail, so
     they are read sorted: the monotone rearrangement of Chernozhukov et al.
     (2010), which never increases estimation error. *)
  let sorted t =
    let q = Array.map P2.quantile [| t.sk_p50; t.sk_p95; t.sk_p99 |] in
    Array.sort Float.compare q;
    q

  let p50 t = (sorted t).(0)

  let p95 t = (sorted t).(1)

  let p99 t = (sorted t).(2)
end
