(** The deterministic state machine being replicated.

    BFT can replicate any service that behaves as a deterministic state
    machine: replicas that execute the same operations in the same order
    must produce the same results and reach the same state. Implementations
    must be deterministic — no wall-clock time, no host randomness.

    [execute] returns the result together with an undo closure; undo
    supports rolling back *tentatively* executed operations when a view
    change aborts them (the protocol never rolls back committed
    operations). Undo closures are applied in reverse execution order. *)

type undo = unit -> unit

type capture = {
  length : int;  (** exact length of the snapshot's [data] *)
  pad : int;  (** the snapshot's [pad] *)
  payload : Payload.t Lazy.t;
      (** the snapshot itself, encoded only when forced *)
}
(** A checkpoint snapshot taken now and encoded later. Forcing [payload]
    yields the state as it was at capture time, whatever the service
    executes in between: the bytes equal what [snapshot] returned at that
    moment. [length] and [pad] are known without forcing, so a caller can
    charge the encoding before (or without) paying for it. *)

type t = {
  name : string;
  execute : client:Types.client_id -> op:Payload.t -> Payload.t * undo;
  is_read_only : Payload.t -> bool;
      (** server-side check that an operation marked read-only really is;
          a faulty client must not corrupt the state via the read-only
          path. *)
  execute_cost : Payload.t -> float;
      (** simulated CPU seconds the operation costs beyond protocol
          overhead (the paper's null service returns 0). *)
  state_digest : unit -> Bft_crypto.Fingerprint.t;
      (** a function of the state alone, not of the history that reached
          it: the same state reached by different operations, by undo, or
          by [restore], digests the same. *)
  modified_since_checkpoint : unit -> int;
      (** bytes dirtied since the last checkpoint. The replica charges
          checkpoint digests on this count, as BFT's incremental
          (copy-on-write) checkpoints do; a service whose [state_digest]
          and [capture] do work proportional to it (the KV store) costs
          the host what it costs the model. *)
  checkpoint_taken : unit -> unit;  (** reset the dirty counter *)
  snapshot : unit -> Payload.t;
      (** the current state, encoded now; [restore] accepts it *)
  capture : unit -> capture;
      (** the current state, encoded on demand (see {!capture}) *)
  restore : Payload.t -> unit;
}

val null : unit -> t
(** The paper's "simple service": no state; an operation carries an
    argument and returns a zero-filled result of the size named in the op,
    performing no computation. An op whose payload data starts with ['R']
    is read-only. *)

val null_op : read_only:bool -> arg_size:int -> result_size:int -> Payload.t
(** Build an op asking for [result_size] zero-filled result bytes, carrying
    [arg_size] modeled argument bytes. *)

val capture_of_snapshot : (unit -> Payload.t) -> unit -> capture
(** An eager [capture] for services whose state is small: encode now with
    the given [snapshot], wrap the bytes. *)
