(** Global crypto operation counters (paper Section 4.2 accounting).

    [Mac.compute]/[Mac.verify] and the [Fingerprint] entry points bump
    these counters, so a profiling run can report how many MACs were
    generated/checked and how many bytes were digested — the operation
    counts behind the paper's "symmetric cryptography is why it's fast"
    argument. Counters are process-global and deterministic for a fixed
    seed; [reset] before a measured run, [snapshot] after. *)

type snapshot = {
  mac_gen_ops : int;
  mac_gen_bytes : int;
  mac_verify_ops : int;
  mac_verify_bytes : int;
  digest_ops : int;
  digest_bytes : int;
}

val reset : unit -> unit

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: counts in the window between two snapshots. *)

val note_mac_gen : int -> unit
(** Called by [Mac.compute] with the message length. *)

val note_mac_verify : int -> unit
(** Called by [Mac.verify] with the message length. *)

val note_digest : int -> unit
(** Called by [Fingerprint] with the digested length. *)
