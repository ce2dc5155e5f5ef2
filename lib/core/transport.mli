(** Authenticated messaging for one principal (replica or client process).

    Wraps the simulated network with the paper's authentication scheme:
    every outgoing message is digested (MD5) and tagged with a MAC vector —
    one UMAC-style entry per receiver — and every incoming message is
    digested and its own MAC entry verified. The corresponding CPU costs
    are charged to the principal's machine, which is how the paper's
    "digest computation is a major source of overhead, MACs are negligible"
    economics enter the simulation. An ablation mode replaces MAC vectors
    with simulated public-key signatures (the Rampart-era design). *)

type peer = { principal : int; node : Bft_net.Network.node_id }

(** Outcome of verifying an incoming wire. [Replayed] means the
    authenticator nonce was already seen (or fell below the per-sender
    anti-replay window) — the wire is dropped before any crypto work.
    [Rejected] means the MAC check itself failed, or the sender is outside
    the deployment (dropped before any crypto work, keeping no state). *)
type verdict = Accepted | Replayed | Rejected

type t

val create :
  Bft_net.Network.t ->
  keychain:Bft_crypto.Keychain.t ->
  node:Bft_net.Network.node_id ->
  ?public_key_signatures:bool ->
  unit ->
  t

val principal : t -> int

val node : t -> Bft_net.Network.node_id

val cpu : t -> Bft_sim.Cpu.t

val keychain : t -> Bft_crypto.Keychain.t

val send : t -> dst:peer -> Message.t -> unit

val multicast :
  t -> ?commits:Message.commit list -> dsts:peer list -> Message.t -> unit

(** [check t rx] verifies this principal's own MAC tag in the
    authenticator of a received envelope and charges the receive-side
    crypto costs. Replayed nonces are dropped without charging and without
    digesting anything (the receiver rejects them on the cheap nonce
    comparison alone). *)
val check : t -> Message.received -> verdict

val set_corrupt_auth : t -> bool -> unit
(** Fault injection: emit invalid MACs (a forger without the keys). *)
