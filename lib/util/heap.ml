type 'a entry = {
  priority : float;
  seq : int;
  value : 'a;
  mutable pos : int;  (* index in [data]; -1 once popped or removed *)
}

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let dummy = { priority = nan; seq = -1; value = Obj.magic 0; pos = -1 }

let create () = { data = Array.make 64 dummy; size = 0; next_seq = 0 }

let length h = h.size

let is_empty h = h.size = 0

let entry_less a b =
  a.priority < b.priority || (a.priority = b.priority && a.seq < b.seq)

let grow h =
  let data = Array.make (2 * Array.length h.data) dummy in
  Array.blit h.data 0 data 0 h.size;
  h.data <- data

let place h i e =
  h.data.(i) <- e;
  e.pos <- i

(* Both sifts move the hole, not the entry: each level costs one write. *)
let rec sift_up h i e =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let p = h.data.(parent) in
    if entry_less e p then begin
      place h i p;
      sift_up h parent e
    end
    else place h i e
  end
  else place h i e

let rec sift_down h i e =
  let left = (2 * i) + 1 in
  if left >= h.size then place h i e
  else begin
    let right = left + 1 in
    let child =
      if right < h.size && entry_less h.data.(right) h.data.(left) then right
      else left
    in
    let c = h.data.(child) in
    if entry_less c e then begin
      place h i c;
      sift_down h child e
    end
    else place h i e
  end

let add h ~priority value =
  if h.size = Array.length h.data then grow h;
  let entry = { priority; seq = h.next_seq; value; pos = h.size } in
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) entry;
  entry

let push h ~priority value = ignore (add h ~priority value : _ entry)

(* Fill slot [i] with the last entry and restore the heap order. *)
let delete_at h i =
  h.size <- h.size - 1;
  let last = h.data.(h.size) in
  h.data.(h.size) <- dummy;
  if i < h.size then begin
    if i > 0 && entry_less last h.data.((i - 1) / 2) then sift_up h i last
    else sift_down h i last
  end

let pop h =
  if h.size = 0 then raise Not_found;
  let top = h.data.(0) in
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
  h.data.(0).priority
