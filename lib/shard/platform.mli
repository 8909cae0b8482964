(** The sharded elastic platform: N composed RSMR shards plus a
    replicated directory, all over one shared node pool.

    Each shard is an independent {!Rsmr_core.Service} epoch chain hosting
    the KV application on its own network overlay (the same physical
    node ids appear in every overlay — one machine, many replica roles).
    The directory is {e itself} a composed service hosting
    {!Rsmr_app.Dir_app} — the paper's recursion: reconfigurable
    directory from the same non-reconfigurable building blocks.  Client
    endpoints route commands to shards by key range ({!Keyspace}) and,
    when they lose track of a shard's configuration, resolve it through
    the replicated directory ({!Dir_client}) rather than a private
    oracle.

    Why the directory's own reconfigurations can never deadlock the
    shards it serves: a shard's data path (submit → order → apply →
    reply) touches the directory only on the endpoint's slow path, and
    every directory interaction is an ordinary retried client request —
    if the directory is wedged mid-handoff, lookups are simply late, and
    the endpoint keeps probing its cached configuration meanwhile.  The
    directory never calls into the shards at all. *)

module type S = sig
  module Dir_svc :
    Rsmr_core.Service.S with type app_state = Rsmr_app.Dir_app.t

  module Shard_svc : Rsmr_core.Service.S with type app_state = Rsmr_app.Kv.t

  type t

  val create :
    engine:Rsmr_sim.Engine.t ->
    ?latency:Rsmr_net.Latency.t ->
    ?drop:float ->
    ?bandwidth:float ->
    ?smr_params:Rsmr_smr.Params.t ->
    ?options:Rsmr_core.Options.t ->
    ?obs:Rsmr_obs.Registry.t ->
    ?dir_members:Rsmr_net.Node_id.t list ->
    ?keyspace:Keyspace.t ->
    pool:Rsmr_net.Node_id.t list ->
    shards:Rsmr_net.Node_id.t list list ->
    unit ->
    t
  (** [pool] is the shared machine pool; every shard (and the directory)
      may be reconfigured onto any pool node.  [shards] gives each
      shard's initial member set (subsets of [pool]).  [dir_members]
      defaults to the first three pool nodes.  [keyspace] defaults to an
      even cut of the canonical 100k-key space and must have exactly one
      range per shard.  [bandwidth] (bytes/s) models each node's NIC on
      the shard overlays — the directory overlay stays unconstrained,
      its traffic is a trickle.  All overlays share [obs], so the
      registry's ["net"]/["svc"] sections account the {e aggregate}
      platform. *)

  val cluster : t -> Rsmr_iface.Cluster.t
  (** Workload facade: [submit] decodes the command's key and routes to
      the owning shard's endpoint.  Its [control] is {!control}: moving a
      shard is {!rebalance}, not a membership change. *)

  val engine : t -> Rsmr_sim.Engine.t
  val obs : t -> Rsmr_obs.Registry.t

  val counters : t -> Rsmr_sim.Counters.t
  (** The live view of the platform's ["shard"] section (cells of {!obs}
      labelled [("section", "shard")]): "dir_lookups", "rebalances",
      "rebalances_done", "rebalance_stalled". *)

  val keyspace : t -> Keyspace.t
  val n_shards : t -> int
  val shard : t -> int -> Shard_svc.t
  val shard_members : t -> int -> Rsmr_net.Node_id.t list
  val dir : t -> Dir_svc.t
  val dir_client : t -> Dir_client.t

  val dir_epoch_regressions : t -> int
  (** Directory-epoch monotonicity witness (see
      {!Dir_client.regressions}); the crucible's [dir-epoch-monotone]
      oracle requires 0. *)

  val first_client_id : t -> Rsmr_net.Node_id.t
  (** Lowest safe workload-client id (above every overlay's service,
      directory and admin ids). *)

  val control : t -> Rsmr_iface.Overlay.control
  (** The platform's {!Rsmr_iface.Overlay} fault surface — the same
      signature single-service clusters carry, so harnesses drive both
      uniformly.  [Crash]/[Recover] are {e machine}-level (the node goes
      down in every overlay at once); [Partition]/[Heal] act on the
      directory overlay only; [reconfigure] moves the directory service
      itself onto new pool nodes.  A [Partition] is raw: the caller
      places the directory overlay's auxiliary ids (oracle node,
      sessions) into groups itself; prefer {!isolate_dir}.  Shard data
      paths keep flowing under a directory partition; lookups stall
      until [Heal]. *)

  val isolate_dir : t -> Rsmr_net.Node_id.t list -> unit
  (** Cut the given pool nodes away from the rest of the directory
      overlay (auxiliary ids stay with the majority side).  Isolating
      every current directory member blacks the directory out for
      clients while keeping its replicas mutually connected; undo with
      [Heal] on {!control}. *)

  val rebalance :
    t ->
    node:Rsmr_net.Node_id.t ->
    from_:int ->
    to_:int ->
    ?on_done:(bool -> unit) ->
    unit ->
    unit
  (** Rolling move of [node] from shard [from_] to shard [to_]:
      reconfigure the donor down, wait (on the engine clock) for its new
      epoch to take, then reconfigure the recipient up.  [on_done false]
      if the move was ineligible (node not in donor / already in
      recipient / donor would empty) or a phase failed to activate
      within the polling budget. *)

  val endpoint_counter_total : t -> string -> int
  (** Sum of one counter ("retries", "redirects", "lookups", ...) over
      every workload client endpoint on every shard. *)
end

module Make_on (_ : Rsmr_smr.Block_intf.S) : S

module Core : S
(** Platform over static Multi-Paxos blocks. *)

module Vr : S
(** Platform over static Viewstamped Replication blocks — the
    block-interchangeability witness at platform scale. *)
