(** Byzantine behaviours injectable into a replica.

    The paper assumes faulty nodes "may behave arbitrarily"; these are the
    concrete arbitrary behaviours the test suite exercises against the
    protocol's safety and liveness claims. Behaviours can be installed at
    replica construction or switched at runtime by a chaos plan
    ({!Cluster.set_behavior}). [Mute], [Slow], [Replay] and [Inflate_view]
    are wire faults ({!env}); the rest act in {!Cluster} or {!Replica}. *)

type t =
  | Correct
  | Crash_at of float  (** fail-stop at a virtual time *)
  | Mute  (** receives but never sends (silent Byzantine) *)
  | Two_faced
      (** as primary, sends conflicting pre-prepares to different backups
          — the classic equivocation attack view changes must defeat *)
  | Corrupt_replies  (** executes honestly but replies with garbage *)
  | Forge_auth  (** emits messages with invalid MACs *)
  | Stale_view  (** keeps broadcasting messages from an old view *)
  | Replay
      (** records authenticated datagrams it receives and re-injects them
          verbatim later — a replay attack; duplicate suppression and
          timestamp checks must defuse it *)
  | Inflate_view of int
      (** executes and replies honestly but reports its view inflated by
          this amount in replies — an attack on the client's view tracking
          and on the view it attaches to accepted outcomes *)
  | Slow of float  (** adds CPU seconds to every handled message *)

val is_correct : t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Stable encoding for fault-plan files; inverse of {!of_string}. *)

val of_string : string -> t option

(** {1 Wire faults} *)

type ring
(** The last 32 datagrams a [Replay] replica accepted. *)

val ring : unit -> ring

val forget : ring -> unit
(** Empty the ring, as a reboot does. *)

val env :
  current:(unit -> t) ->
  rng:Bft_util.Rng.t ->
  ring:ring ->
  inject:(wire:string -> size:int -> unit) ->
  Env.t ->
  Env.t
(** A replica's effects under the behaviour [current ()] returns at each
    call: [Mute] drops [send], [multicast] and the [Reply_sent] trace;
    [Slow s] charges [s] seconds before [check]; [Replay] keeps each
    [Accepted] datagram in [ring] and, with p = 0.25 drawn from [rng],
    passes one from it to [inject]; [Inflate_view k] adds [k] to an
    outgoing REPLY's view. *)
