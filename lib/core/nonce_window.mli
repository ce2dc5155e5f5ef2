(** Anti-replay windows, one per sender.

    A window holds the highest nonce accepted from its sender plus a
    bitmap over the 64 nonces below it. Senders draw nonces from a
    per-transport monotonic counter and the simulated network delivers each
    (src, dst) link in FIFO order, so a bounded window cannot reject a
    first delivery; anything below the window is necessarily a replay.

    Windows are stored unboxed at
    the sender's dense index ({!Bft_crypto.Keychain.peer_index}), so a
    check and a record allocate nothing and the storage grows with the
    senders heard from. *)

type t

val create : unit -> t

type status =
  | Fresh  (** never seen: above the window, or in it and unmarked *)
  | Seen  (** in the window and marked *)
  | Stale  (** below the window *)

val status : t -> int -> int64 -> status
(** [status t sender nonce]; every nonce of a sender never recorded is
    [Fresh]. *)

val record : t -> int -> int64 -> unit
(** Mark [nonce] seen for [sender], sliding the window up when it is the
    new highest. A sender's window starts at highest 0, bitmap empty. *)
