(** Cross-shard atomic transactions: a two-phase-commit coordinator over
    the PBFT groups of a {!Rig}.

    A handle is an unreplicated client-side coordinator; atomicity does not
    depend on it surviving. Each participant group replicates a PREPARE
    that acquires per-key locks, and the commit point is a replicated
    [Commit] serialized by the {e decision group} (lowest participant group
    id). A coordinator crash leaves locks but never an ambiguous outcome:
    whichever of [Commit]/[Abort] the decision group's PBFT log serialized
    first is the outcome, and any client blocked on a leftover lock can
    drive the transaction to that outcome itself ({!invoke}'s recovery
    path), so a crashed coordinator cannot wedge a group.

    Handles also fence on the rig's slot gates the way {!Proxy} does, so
    transactions interleave safely with a live reshard
    ({!Reshard.extend}). *)

type t

type fail_mode =
  | No_failure
  | Crash_between_prepare_and_commit
      (** test-only: the coordinator dies after every participant voted
          yes, before any Commit — locks held, no decision recorded *)

type outcome = Committed | Aborted of string  (** reason *)

val create :
  ?name:string ->
  ?prepare_timeout:float ->
  ?recovery_timeout:float ->
  Rig.t ->
  t
(** Adds one dedicated client to every built group. [name] prefixes
    transaction identifiers (made unique per handle by the rig's proxy
    ordinal). [prepare_timeout] (default [8 × view_change_timeout]) bounds
    the prepare phase before the coordinator aborts. [recovery_timeout]
    enables lock recovery in {!invoke}: after being blocked that long on
    one lock, the handle resolves the blocking transaction itself; when
    omitted, blocked operations just retry with backoff — the setting that
    demonstrates a dead coordinator wedging a group. *)

val exec : t -> Bft_services.Kv_store.op list -> (outcome -> unit) -> unit
(** Run the writes (Put / Delete / Cas over distinct keys, any groups) as
    one atomic transaction; the callback fires exactly once with the
    serialized outcome — unless the handle dies mid-flight, in which case
    it never fires (the crash under test). Raises [Invalid_argument] on
    non-write ops, duplicate keys, an empty list, an outstanding
    operation, or a dead handle. *)

val invoke :
  t ->
  Bft_services.Kv_store.op ->
  (Bft_services.Kv_store.result -> unit) ->
  unit
(** Single-key operation with lock recovery (see [recovery_timeout]).
    Unlike {!Proxy.invoke}, a ["locked:…"] rejection is handled inside:
    retried with backoff and, once the recovery timeout expires, resolved
    by finishing the blocking transaction. *)

val set_fail_mode : t -> fail_mode -> unit

val busy : t -> bool

val dead : t -> bool

val name : t -> string

val started : t -> int

val committed : t -> int

val aborted : t -> int

val recoveries : t -> int
(** Blocking transactions this handle resolved on behalf of their (dead)
    coordinators. *)
