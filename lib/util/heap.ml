type 'a entry = {
  value : 'a;
  priority : float;
      (* the caller's boxed float, kept so [min_priority] returns it
         without boxing another *)
  mutable pos : int;  (* index in the heap's arrays; -1 once popped or removed *)
}

(* Structure of arrays: slot [i] holds [prio.(i)], [seqs.(i)] and
   [items.(i)], so an ordering test reads an unboxed float and an int and
   never dereferences an entry. *)
type 'a t = {
  mutable prio : float array;
  mutable seqs : int array;
  mutable items : 'a entry array;
  mutable size : int;
  counter : int ref;  (* next insertion number; shared by [tied_to] heaps *)
}

let dummy = { value = Obj.magic 0; priority = nan; pos = -1 }

let create ?tied_to () =
  {
    prio = Array.make 64 0.0;
    seqs = Array.make 64 0;
    items = Array.make 64 dummy;
    size = 0;
    counter = (match tied_to with Some h -> h.counter | None -> ref 0);
  }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let n = 2 * Array.length h.items in
  let prio = Array.make n 0.0 and seqs = Array.make n 0 and items = Array.make n dummy in
  Array.blit h.prio 0 prio 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.items 0 items 0 h.size;
  h.prio <- prio;
  h.seqs <- seqs;
  h.items <- items

(* Whether slot [i] orders before slot [j]. *)
let before h i j =
  let p = Array.unsafe_get h.prio i and q = Array.unsafe_get h.prio j in
  p < q || (p = q && Array.unsafe_get h.seqs i < Array.unsafe_get h.seqs j)

(* Both sifts restore the order around the element at slot [i]. They
   move the hole, not the element, so each level costs one move, keep the
   element's priority in a local, and read the arrays directly: a float
   argument or result of a call would be boxed. *)
let sift_up h i =
  let prio = h.prio and seqs = h.seqs and items = h.items in
  let p = Array.unsafe_get prio i and s = Array.unsafe_get seqs i in
  let e = Array.unsafe_get items i in
  let hole = ref i and rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let q = Array.unsafe_get prio parent in
    if p < q || (p = q && s < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set prio !hole q;
      Array.unsafe_set seqs !hole (Array.unsafe_get seqs parent);
      let moved = Array.unsafe_get items parent in
      Array.unsafe_set items !hole moved;
      moved.pos <- !hole;
      hole := parent
    end
    else rising := false
  done;
  Array.unsafe_set prio !hole p;
  Array.unsafe_set seqs !hole s;
  Array.unsafe_set items !hole e;
  e.pos <- !hole

let sift_down h i =
  let prio = h.prio and seqs = h.seqs and items = h.items and size = h.size in
  let p = Array.unsafe_get prio i and s = Array.unsafe_get seqs i in
  let e = Array.unsafe_get items i in
  let hole = ref i and sinking = ref true in
  while !sinking do
    let left = (2 * !hole) + 1 in
    if left >= size then sinking := false
    else begin
      let right = left + 1 in
      let child =
        if right < size then begin
          let r = Array.unsafe_get prio right and l = Array.unsafe_get prio left in
          if r < l || (r = l && Array.unsafe_get seqs right < Array.unsafe_get seqs left)
          then right
          else left
        end
        else left
      in
      let q = Array.unsafe_get prio child in
      if q < p || (q = p && Array.unsafe_get seqs child < s) then begin
        Array.unsafe_set prio !hole q;
        Array.unsafe_set seqs !hole (Array.unsafe_get seqs child);
        let moved = Array.unsafe_get items child in
        Array.unsafe_set items !hole moved;
        moved.pos <- !hole;
        hole := child
      end
      else sinking := false
    end
  done;
  Array.unsafe_set prio !hole p;
  Array.unsafe_set seqs !hole s;
  Array.unsafe_set items !hole e;
  e.pos <- !hole

let add h ~priority value =
  if h.size = Array.length h.items then grow h;
  let i = h.size in
  let entry = { value; priority; pos = i } in
  Array.unsafe_set h.prio i priority;
  Array.unsafe_set h.seqs i !(h.counter);
  Array.unsafe_set h.items i entry;
  incr h.counter;
  h.size <- i + 1;
  sift_up h i;
  entry

let push h ~priority value = ignore (add h ~priority value : _ entry)

(* Fill slot [i] with the last element and restore the order there. *)
let delete_at h i =
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    Array.unsafe_set h.prio i (Array.unsafe_get h.prio last);
    Array.unsafe_set h.seqs i (Array.unsafe_get h.seqs last);
    Array.unsafe_set h.items i (Array.unsafe_get h.items last);
    Array.unsafe_set h.items last dummy;
    if i > 0 && before h i ((i - 1) / 2) then sift_up h i else sift_down h i
  end
  else Array.unsafe_set h.items last dummy

let pop h =
  if h.size = 0 then raise Not_found;
  let top = Array.unsafe_get h.items 0 in
  delete_at h 0;
  top.pos <- -1;
  top.value

let remove h e =
  if e.pos >= 0 then begin
    let i = e.pos in
    e.pos <- -1;
    delete_at h i
  end

let mem e = e.pos >= 0

let min_priority h =
  if h.size = 0 then raise Not_found;
  (Array.unsafe_get h.items 0).priority

let head_before a b =
  if a.size = 0 || b.size = 0 then invalid_arg "Heap.head_before";
  let p = Array.unsafe_get a.prio 0 and q = Array.unsafe_get b.prio 0 in
  p < q || (p = q && Array.unsafe_get a.seqs 0 < Array.unsafe_get b.seqs 0)
