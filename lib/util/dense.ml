let grow a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (Stdlib.max (i + 1) (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

let grow_bytes b len =
  let n = Bytes.length b in
  if len <= n then b
  else begin
    let c = Bytes.make (Stdlib.max len (2 * n)) '\000' in
    Bytes.blit b 0 c 0 n;
    c
  end

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k = k land max_int
end)
