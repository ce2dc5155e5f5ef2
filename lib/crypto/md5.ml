(* MD5 per RFC 1321, computed by the C implementation that ships in the
   OCaml runtime ([Stdlib.Digest]). *)

let digest = Digest.string

let to_hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex s = to_hex (digest s)
