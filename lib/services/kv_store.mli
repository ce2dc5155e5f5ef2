(** A replicated key-value store: a small but stateful deterministic
    service used by the examples, the sharded workloads and the
    cross-shard transaction tests.

    Operations are encoded into {!Bft_core.Payload.t} by {!op}; results
    decode with {!result_of_payload}. Get operations are read-only and
    eligible for the paper's read-only optimization.

    Beyond the single-key operations, the store exposes the replicated half
    of the cross-shard machinery:

    - {e transactions}: [Prepare] validates a batch of writes and acquires
      per-key locks, [Commit]/[Abort] resolve it (presumed abort: aborting
      an unknown transaction records the decision so a late [Prepare] votes
      no), and [Txn_status] lets a recovering client learn the outcome.
      Locked keys reject single-key writes with ["locked:<decision>:<txn>"].
    - {e migration}: [Snapshot_slot] reads every binding in a hash slot
      (refusing while any key of the slot is locked), [Install] writes a
      snapshot into a new owner, and [Drop_slot] retires the donor's copy.
      Slot membership uses the seedless {!Bft_util.Keyhash}, so router and
      replicas always agree.

    All operations return an undo closure, so they are safe under the
    protocol's tentative execution.

    Checkpoints cost O(modified) on the host: the state digest is an AdHash
    (a sum of per-binding MD5 leaves modulo 2{^128}, kept up to date by
    every write), and [capture] holds the persistent binding map as of the
    call, encoding it only if the snapshot is forced. *)

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of { key : string; expected : string option; update : string }
      (** compare-and-swap: atomic test of the current binding *)
  | Prepare of {
      txn : string;
      decision : int;  (** group whose PBFT log serializes the decision *)
      participants : int list;
      ops : op list;  (** plain writes only: Put / Delete / Cas *)
    }
  | Commit of string
  | Abort of string
  | Txn_status of string
  | Snapshot_slot of { slot : int; slots : int }
  | Install of { slot : int; slots : int; bindings : (string * string) list }
  | Drop_slot of { slot : int; slots : int }

type result =
  | Value of string option  (** for Get *)
  | Stored  (** for Put / Delete / Commit / Abort / Install / Drop_slot *)
  | Cas_result of bool  (** whether the swap happened *)
  | Error of string
  | Prepared of bool  (** the replica's vote *)
  | Bindings of (string * string) list  (** for Snapshot_slot *)
  | Txn_state of { state : int; participants : int list }
      (** for Txn_status; [participants] only while prepared *)

val txn_prepared : int

val txn_committed : int

val txn_aborted : int

val op_payload : op -> Bft_core.Payload.t

val op_of_payload : Bft_core.Payload.t -> op option
(** [None] on any malformed encoding, including trailing bytes. *)

val result_payload : result -> Bft_core.Payload.t

val result_of_payload : Bft_core.Payload.t -> result
(** [Error "undecodable result"] on any malformed encoding, including
    trailing bytes. *)

val is_read_only_op : op -> bool

type store
(** Replicated state, separable from the service wrapper so tests and
    chaos audits can retain a handle across replica restarts. *)

val create_store : unit -> store

val exec_base_cost : float
(** Fixed simulated seconds of every operation's [execute_cost]; each
    encoded operation byte adds 2 ns on top. *)

val service_of_store : store -> Bft_core.Service.t
(** Wrap existing state; each replica must still get its own store. *)

val service : unit -> Bft_core.Service.t
(** [service_of_store (create_store ())]. *)

val store_find : store -> string -> string option

val store_locks : store -> (string * string) list
(** Sorted [key, holding transaction] pairs (audit hook). *)

val store_prepared_txns : store -> string list
(** Sorted identifiers of in-doubt transactions (audit hook). *)

val store_decision : store -> string -> bool option
(** Recorded outcome of a transaction, if still remembered. *)

val size : store -> int
(** Number of live bindings (test hook; O(1)). *)
