(** In-memory Unix-like file system backing the NFS state machine.

    File handles are inode numbers; the root is {!root}. Small file
    contents are stored literally (up to 64 KiB), while bulk
    benchmark data — the paper's Andrew500 writes ~1 GB — is carried as
    modeled sizes folded into a rolling per-file content hash, so the
    simulation stays cheap without giving up determinism: replicas applying
    the same writes in the same order always agree on sizes, hashes, and
    attributes. Logical time for [mtime]/[ctime] is a mutation counter, not
    wall-clock, so execution stays deterministic across replicas.

    All mutating operations return an undo closure (used by the BFT
    library to roll back tentatively executed batches). *)

type fh = int

type ftype = Reg | Dir | Lnk

type attr = {
  ftype : ftype;
  mode : int;
  nlink : int;
  size : int;
  mtime : int;  (** logical mutation stamp *)
  ctime : int;
}

type error =
  | ENOENT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | ESTALE
  | EINVAL
  | EACCES

val error_name : error -> string

type t

type undo = unit -> unit

val create : unit -> t

val root : fh

val lookup : t -> dir:fh -> name:string -> (fh * attr, error) result

val getattr : t -> fh -> (attr, error) result

val setattr :
  t -> fh -> ?size:int -> ?mode:int -> unit -> (attr * undo, error) result

val read : t -> fh -> off:int -> len:int -> (Bft_core.Payload.t, error) result

val write :
  t -> fh -> off:int -> data:Bft_core.Payload.t -> (attr * undo, error) result

val create_file :
  t -> dir:fh -> name:string -> mode:int -> (fh * attr * undo, error) result

val mkdir : t -> dir:fh -> name:string -> mode:int -> (fh * attr * undo, error) result

val remove : t -> dir:fh -> name:string -> (undo, error) result

val rmdir : t -> dir:fh -> name:string -> (undo, error) result

val rename :
  t -> from_dir:fh -> from_name:string -> to_dir:fh -> to_name:string ->
  (undo, error) result

val link : t -> src:fh -> dir:fh -> name:string -> (undo, error) result

val symlink :
  t -> dir:fh -> name:string -> target:string -> (fh * undo, error) result

val readlink : t -> fh -> (string, error) result

val readdir : t -> fh -> (string list, error) result
(** Entry names in lexicographic order (excluding "." and ".."). *)

val dir_size : t -> fh -> int
(** Number of entries in a directory; 0 for non-directories. O(1). *)

val statfs : t -> int * int
(** (total virtual bytes, file count). *)

val state_digest : t -> Bft_crypto.Fingerprint.t
(** O(1): a rolling hash folded over every mutation. *)

val snapshot : t -> string

val restore : t -> string -> unit

val total_bytes : t -> int
(** Sum of virtual file sizes (for the memory-pressure model). *)
