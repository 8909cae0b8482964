(** The client-facing edge of a replicated service: the directory node,
    client endpoints, the administrative reconfiguration session and the
    {!Rsmr_iface.Cluster.t} face.

    Clients reach a service through a directory that maps it to its
    current configuration and refresh that mapping on retry or redirect.
    A lookup is one datagram each way; one left unanswered for a second
    is answered "nobody" at the client's next send, so a lost lookup
    never stops the endpoint from asking again.
    None of that depends on how the service orders commands, so the
    composed {!Service} and the native Raft baseline share this one
    implementation.  A stack parameterises it only by how its own wire
    union carries the client and directory messages ({!wire}); the
    encodings stay the stack's own.

    Id allocation: the directory node sits right above the replica
    universe and the admin session right above it ([dir_id + 1]).
    Client ids must not collide with either. *)

type handler = {
  on_client : src:Rsmr_net.Node_id.t -> Rsmr_client.Client_msg.t -> unit;
  on_update :
    epoch:int ->
    members:Rsmr_net.Node_id.t list ->
    leader:Rsmr_net.Node_id.t option ->
    unit;
  on_lookup : src:Rsmr_net.Node_id.t -> unit;
  on_info :
    epoch:int ->
    members:Rsmr_net.Node_id.t list ->
    leader:Rsmr_net.Node_id.t option ->
    unit;
}
(** What one edge node (the directory, or one client) does with each
    edge message.  Built once per node, never per message. *)

type 'w wire = {
  to_client : Rsmr_client.Client_msg.t -> 'w;
  lookup : 'w;  (** client → directory: "what is the configuration?" *)
  info :
    epoch:int ->
    members:Rsmr_net.Node_id.t list ->
    leader:Rsmr_net.Node_id.t option ->
    'w;  (** directory → client: the answer *)
  recv : handler -> 'w Rsmr_net.Network.envelope -> unit;
      (** Route an incoming edge message (client message, directory
          update, lookup or info) to the matching [handler] field; every
          other constructor is ignored.  Must be total and deterministic:
          it runs on every delivery to an edge node. *)
}
(** How one stack's wire union carries the edge messages. *)

type 'w t

val create :
  engine:Rsmr_sim.Engine.t ->
  net:'w Rsmr_net.Network.t ->
  bus:Rsmr_sim.Trace.t ->
  wire:'w wire ->
  universe:Rsmr_net.Node_id.t list ->
  batch_window:float ->
  batch_max:int ->
  'w t
(** [universe] is every node that may ever host a replica.  No side
    effects until {!start}.  [batch_window]/[batch_max] are every client
    endpoint's coalescing settings. *)

val start : 'w t -> members:Rsmr_net.Node_id.t list -> unit
(** Publish epoch 0 ([members], no leader) in the directory, register the
    directory node, then create the admin session — in that order.  Call
    once, after every replica exists: the admin endpoint splits the
    engine RNG, so moving this call changes every later random draw. *)

val lifecycle :
  'w t -> node:Rsmr_net.Node_id.t -> string -> (string * string) list -> unit
(** [lifecycle t ~node ev attrs] emits one per-command lifecycle event
    [ev] (topic [`Lifecycle], attributes [("ev", ev) :: attrs]) on the
    stack's trace bus, for {!Rsmr_obs.Span} reconstruction.  Build
    [attrs] only under [Trace.active], so an unobserved run allocates
    nothing. *)

val command_lifecycle :
  'w t ->
  node:Rsmr_net.Node_id.t ->
  string ->
  client:int ->
  seq:int ->
  epoch:int ->
  idx:int ->
  unit
(** {!lifecycle} with the [client], [seq], [epoch], [idx] attributes, in
    that order; does nothing (and allocates nothing) when no one listens
    on the bus. *)

val dir_id : 'w t -> Rsmr_net.Node_id.t
(** The directory node; stacks send their [Dir_update]s here. *)

val directory : 'w t -> Directory.t

val cluster :
  'w t -> obs:Rsmr_obs.Registry.t -> Rsmr_iface.Cluster.t
(** The protocol-agnostic face.  [add_client] registers a client endpoint
    on the stack's network; [control] crashes, recovers, partitions and
    heals nodes there, and reconfigures through the admin session. *)

val write_state : Rsmr_app.Codec.Writer.t -> 'w t -> unit
(** Append the edge's share of a model-checker fingerprint: directory
    epoch, members and leader, the admin sequence number, then every
    client (sorted by id) with its endpoint fingerprint and whether a
    directory lookup is outstanding. *)
