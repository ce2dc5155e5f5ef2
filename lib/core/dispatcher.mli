(** Per-machine demultiplexer.

    A simulated machine hosts one or more principals (a replica, or several
    client processes, as in the paper's five client machines running up to
    200 client processes). The dispatcher decodes each incoming datagram
    and routes it: client-addressed messages (REPLY, and the admission
    layer's BUSY) go to the client process they name, everything else goes
    to the machine's default principal (its replica or server), as does a
    client-addressed message naming no registered client. A datagram is
    decoded once per transmit: the dispatchers of all its receiving
    machines share one {!Message.received}. Datagrams nobody
    takes are counted and dropped ({!malformed}), as a real server would
    drop garbage UDP packets. Client machines ({!Cluster}'s and {!Norep}'s)
    have no default principal. *)

type sink = Message.received -> unit

type t

val install : Bft_net.Network.t -> Bft_net.Network.node_id -> t

val register_client : t -> Types.client_id -> sink -> unit

val register_default : t -> sink -> unit

val malformed : t -> int
(** Datagrams dropped: those that failed to decode, and, on a machine with
    no default principal, those no principal takes (a REPLY or BUSY naming
    an unregistered client, or any other message). *)
