(** Chaos campaigns for the cross-shard layer: single-key writers and 2PC
    coordinators over a sharded rig, with a live reshard and targeted
    crashes, audited against two shard-level invariants.

    - [txn.atomic]: a cross-shard transaction's effects are all-or-nothing
      across groups — the authoritative readback finds a transaction's
      writes under all of its keys or none, recorded decisions agree
      across groups, and no locks or in-doubt prepares survive the settle.
    - [reshard.no_lost_keys]: every key committed before/during migration
      reads back with its last committed value afterwards, and donor
      groups retire their copies of moved slots.

    A run is deterministic in (scenario, seed, recovery). *)

type scenario =
  | Healthy  (** no faults; live reshard 2 → 3 groups under traffic *)
  | Coordinator_crash
      (** a coordinator dies between PREPARE and COMMIT (no reshard);
          with [recovery] a blocked client resolves the leftover locks,
          without it the audit catches the wedged transaction *)
  | Replica_mid_migration
      (** live reshard with a donor-group replica crashing mid-migration,
          restarted at the heal *)

type violation = Campaign.violation = { invariant : string; detail : string }

type outcome = {
  seed : int;
  scenario : scenario;
  recovery : bool;
  writes_committed : int;
  txns_started : int;
  txns_committed : int;
  txns_aborted : int;
  txns_in_doubt : int;  (** coordinator died before learning the outcome *)
  recoveries : int;
  moved_slots : int;
  moved_keys : int;
  sim_time : float;
  violations : violation list;
}

val failed : outcome -> bool

val run : ?scenario:scenario -> ?recovery:bool -> seed:int -> unit -> outcome
(** [recovery] (default true) enables client-driven lock recovery; setting
    it false demonstrates the [txn.atomic] audit catching a dead
    coordinator's wedged transaction. *)

val jsonl : outcome -> string
(** One JSON object (no trailing newline) describing the run. *)
