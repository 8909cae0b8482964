(** Natively reconfigurable Raft — the design point that dominates
    open-source SMR and the paper's implicit comparator.

    Full implementation: terms, randomized elections, log replication with
    conflict resolution, commit rules, snapshot-based log compaction with
    [InstallSnapshot] for lagging or freshly added servers, client sessions
    with exactly-once semantics, and single-server membership changes
    (Raft dissertation §4: one add/remove at a time, configuration entries
    effective when appended).  A [reconfigure] to an arbitrary target set
    is decomposed by the leader into a sequence of single-server steps,
    adds before removes.

    Timing parameters are shared with the static Multi-Paxos block
    ({!Rsmr_smr.Params}) so protocol comparisons are apples-to-apples.
    The client-facing edge (directory node, client endpoints, admin
    session, {!Rsmr_iface.Cluster.t}) is the composed service's own
    {!Rsmr_core.Front}. *)

module Make (Sm : Rsmr_app.State_machine.S) : sig
  type t

  val create :
    engine:Rsmr_sim.Engine.t ->
    ?latency:Rsmr_net.Latency.t ->
    ?drop:float ->
    ?bandwidth:float ->
    ?params:Rsmr_smr.Params.t ->
    ?snapshot_threshold:int ->
    ?universe:Rsmr_net.Node_id.t list ->
    ?obs:Rsmr_obs.Registry.t ->
    members:Rsmr_net.Node_id.t list ->
    unit ->
    t
  (** [snapshot_threshold] is the number of applied entries above the
      snapshot base that triggers compaction (default 512).  [obs] is the
      run's Observatory registry (fresh when omitted): network accounting
      lands in its ["net"] section, protocol accounting in ["svc"],
      per-node applied counts in [{node}]-scoped cells, and command
      lifecycle events on its trace bus. *)

  val cluster : t -> Rsmr_iface.Cluster.t

  (** {1 Introspection} *)

  val net : t -> Raft_wire.t Rsmr_net.Network.t
  (** The underlying simulated network, for fault injection beyond what
      {!Rsmr_iface.Cluster.t} carries (partitions, link faults, duplicate
      storms) — the crucible runner drives it. *)

  val directory_id : t -> Rsmr_net.Node_id.t
  val counters : t -> Rsmr_sim.Counters.t
  (** The live ["svc"] section view of {!obs} (cells labelled
      [("section", "svc")]): "applied", "requests", "replies",
      "redirects", "elections", "takeovers", "config_steps",
      "compactions", "snapshots_sent", "snapshots_installed". *)

  val leader : t -> Rsmr_net.Node_id.t option
  val config_of : t -> Rsmr_net.Node_id.t -> Rsmr_net.Node_id.t list option
  val app_state : t -> Rsmr_net.Node_id.t -> Sm.t option
end
