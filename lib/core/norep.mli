(** NO-REP: the paper's unreplicated baseline.

    A single server reached directly over (simulated) UDP, with no
    replication, no authentication and no retransmission — exactly the
    comparison point used throughout Section 4. Because requests are not
    retransmitted, overload-induced datagram loss permanently stalls a
    client; the paper notes this is why Figure 4 has no NO-REP points past
    15 clients for operation 4/0. The harness can optionally enable
    retransmission when it needs the run to terminate. *)

val serve :
  Bft_net.Network.t ->
  Bft_net.Network.node_id ->
  (src:Bft_net.Network.node_id -> Message.request -> unit) ->
  unit
(** Make [node] an unreplicated server: decode each datagram and pass its
    request, with the sending node, to the callback; anything else is
    dropped. *)

val send_reply :
  Bft_net.Network.t ->
  src:Bft_net.Network.node_id ->
  dst:Bft_net.Network.node_id ->
  Message.request ->
  Payload.t ->
  unit
(** Answer a request with its full result, in an unauthenticated
    envelope. *)

module Server : sig
  type t

  val create :
    network:Bft_net.Network.t ->
    node:Bft_net.Network.node_id ->
    service:Service.t ->
    unit ->
    t
end

module Client : sig
  type t

  type outcome = { result : Payload.t; latency : float; retries : int }

  val create :
    network:Bft_net.Network.t ->
    node:Bft_net.Network.node_id ->
    dispatcher:Dispatcher.t ->
    id:Types.client_id ->
    server:Bft_net.Network.node_id ->
    ?retry_timeout:float ->
    unit ->
    t
  (** A client process on machine [node], whose replies arrive through
      that machine's [dispatcher] ({!Dispatcher.install}, one per machine,
      shared by every client on it; the client registers under [id]).
      [retry_timeout = None] (default) reproduces the paper's
      fire-and-forget behaviour. *)

  val node : t -> Bft_net.Network.node_id

  val invoke : t -> Payload.t -> (outcome -> unit) -> unit

  val completed : t -> int
  (** Operations completed. *)

  val retransmitted : t -> int
  (** Retransmission timeouts. *)
end

(** One unreplicated deployment: a server machine and its client
    machines on a fresh simulation (see {!Bft_net.Network.simulation}).
    The deployment owns all of its state: nothing is registered outside
    it, so once the caller drops it the whole simulation is garbage. *)
type 'server deployment = {
  network : Bft_net.Network.t;
  server : 'server;
  clients : Client.t list;  (** ids [100], [101], … in creation order *)
}

val deploy :
  rng:Bft_util.Rng.t ->
  ?server_name:string ->
  ?server_recv_buffer:float ->
  install:(Bft_net.Network.t -> Bft_net.Network.node_id -> 'server) ->
  ?client_machine_speed:float ->
  client_machines:string list ->
  clients:int ->
  ?retry_timeout:float ->
  unit ->
  'server deployment
(** Build the network from [rng], the server machine [server_name]
    (default ["server"], with [server_recv_buffer] as its socket buffer)
    and the named client machines, in that node order; [install] puts the
    server on its machine. Each client machine gets one {!Dispatcher}, as
    in {!Cluster.create}. Client [i] runs on machine [i mod machines]. *)
