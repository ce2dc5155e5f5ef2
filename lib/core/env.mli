(** A principal's effects: the one record through which a replica
    ({!Replica}) or a client ({!Client}) acts on the world.

    A principal sends and multicasts datagrams, arms timers, charges CPU,
    reads clocks, emits trace events and checks inbound authenticators by
    calling the members of its record. Neither principal calls a function
    of the engine, timers, CPU model, network, transport or dispatcher, nor
    emits a trace event itself (test/check_seam.sh keeps it so); cost
    figures ({!Bft_sim.Calibration}), the keychain and the CPU categories
    stay plain values. A principal names every other by its id alone,
    never by a machine: which machine a principal runs on is the business
    of the record's builder, which keeps the address book. {!Cluster}
    builds every principal's record, with one builder, over its
    {!Transport}, machine CPU, engine, trace sink and address book, and
    wraps a replica's with the wire faults of its behaviour
    ({!Behavior.env}); a test can build one over a driver of its own. Each
    member runs its effect when called, so effects happen in call order. *)

(** Four timer slots. The driver keeps at most one armed timer per slot
    and principal; what a timer is stays the principal's. A replica uses
    all four; a client uses [Resend_timer] for its retransmission timer
    and its BUSY backoff. *)
type timer = Vc_timer | Resend_timer | Flush_timer | State_timer

type t = {
  send : int -> Message.t -> unit;
      (** to the principal with this id; the builder drops a send to a
          principal that runs on no machine *)
  multicast : commits:Message.commit list -> Message.t -> unit;
      (** to every replica but this principal, with piggybacked [commits] *)
  check : Message.received -> Transport.verdict;
      (** verify this principal's tag in an inbound authenticator *)
  arm : timer -> delay:float -> (unit -> unit) -> unit;
      (** cancel the slot's armed timer, if any, and arm it afresh *)
  cancel : timer -> unit;  (** a no-op unless the slot is armed *)
  armed : timer -> bool;  (** false from the moment the timer fires *)
  after : delay:float -> (unit -> unit) -> unit;
      (** a one-shot that cannot be cancelled *)
  charge : ?cat:Bft_sim.Cpu.category -> float -> unit;
      (** add seconds of CPU work to the running handler, in [cat]
          (default [Other]) *)
  now : unit -> float;  (** the engine clock *)
  cpu_now : unit -> float;
      (** the machine CPU's virtual clock: [now] plus the work charged so far *)
  trace :
    vtime:(unit -> float) ->
    node:int ->
    ?seqno:int ->
    ?view:int ->
    ?req_id:int64 ->
    ?detail:string ->
    Bft_trace.Trace.kind ->
    unit;
      (** record one protocol event, stamped with [vtime ()]; a disabled
          sink calls nothing *)
}
