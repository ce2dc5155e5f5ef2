(** MD5 message digest (RFC 1321).

    The BFT library of the paper computes MD5 digests of requests and
    replies. Digests come from the C MD5 in the OCaml runtime
    ([Stdlib.Digest]); the test suite pins them to the RFC 1321 vectors.
    MAC tags use the same runtime MD5 through its streaming interface
    ([caml_MD5Init]/[Update]/[Final]), from [Mac]'s C stub. *)

val digest : string -> string
(** One-shot 16-byte binary digest. *)

val hex : string -> string
(** One-shot digest rendered as 32 lowercase hex characters. *)

val to_hex : string -> string
(** Render an arbitrary binary string as lowercase hex. *)
