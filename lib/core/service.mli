(** Reconfigurable state machine replication composed from non-reconfigurable
    building blocks — the paper's contribution.

    One service instance manages, on every simulated node, a stack of
    static SMR instances (any {!Rsmr_smr.Block_intf.S}), one per
    configuration epoch:

    - Epoch [e]'s instance orders {!Envelope} commands.  The first decided
      [Reconfig] command {e wedges} the instance: the composed history for
      epoch [e] is exactly the log prefix up to that command.
    - Commands the black box happens to order after the wedge point are
      {e residuals}: never applied in [e], optionally re-submitted into
      [e+1] (deduplicated by client session).
    - Old members push [Bootstrap] to the new configuration's members.
      Members new to the configuration pull the wedge-point snapshot
      (application state + session table) in chunks, spreading their
      fetches across old members and asking the next one only after a
      retry period with no chunk arriving.  A member of both
      configurations takes the state from its own wedge instead, and
      fetches only if its old instance retires unwedged or no wedge
      comes within that period.  Under push transfer a joiner does not
      ask: the old member its fetch would ask first sends the snapshot
      right after its [Bootstrap], and the joiner asks the next one only
      after a retry period with no chunk.  Chunks that arrive before the
      joiner's instance are kept for it.  A joiner's transfer record is
      dropped when its epoch activates.  This policy is {!Epoch}'s;
      the service carries out its effects.
    - With speculative handoff on, epoch [e+1]'s instance boots and orders
      commands {e while} the snapshot is in flight; it executes and replies
      only once the snapshot is installed.
    - A wedged instance halts once it has drained: its leader orders a
      [Drain] barrier after everything it proposed, and when the barrier
      is decided it halts and sends [Retire] to the other members.  The
      host then drops the instance: a retired epoch is its audit record
      and, for a while, the snapshot it donated.  The directory node
      tracks the freshest configuration for clients that lost the trail.

    {!Make_on} composes {e any} building block; {!Make} is the Multi-Paxos
    default.  {!Rsmr_smr.Vr} demonstrates that the layer really is
    block-agnostic. *)

type epoch_stat = {
  es_epoch : int;
  es_activated : bool;
  es_retired : bool;
  es_wedged_at : int option;
      (** log index of the first decided [Reconfig], once wedged *)
  es_applied_hi : int;
      (** highest log index whose command took effect in this instance
          ([-1] if none).  Epoch-prefix safety is
          [es_wedged_at = Some w -> es_applied_hi <= w]. *)
  es_digest : int64;
      (** FNV-1a chain over every (index, envelope) the instance
          processed, in order.  Committed-prefix agreement: two nodes
          with equal [es_applied_hi] in the same epoch must have equal
          digests — the model checker's cross-node witness. *)
}
(** Per-instance audit record, one per epoch a node hosts — the raw
    material for {!epoch_audit}. *)

val epoch_audit : (Rsmr_net.Node_id.t * epoch_stat list) list -> string option
(** The epoch safety audit over one snapshot of every node's records,
    shared by the crucible's [epoch-prefix] oracle and the model
    checker's per-state properties.  Returns the first violation, checked
    in this order:
    - [epoch-prefix]: no instance applied an index past its wedge;
    - [wedge-agreement]: every node that saw epoch [e] wedge saw the same
      wedge index;
    - [committed-prefix]: equal [(es_epoch, es_applied_hi)] on two nodes
      means equal [es_digest].
    The message starts with the property's name. *)

(** Output signature of the service functors. *)
module type S = sig
  type t
  type app_state

  val create :
    engine:Rsmr_sim.Engine.t ->
    ?latency:Rsmr_net.Latency.t ->
    ?drop:float ->
    ?bandwidth:float ->
    ?smr_params:Rsmr_smr.Params.t ->
    ?options:Options.t ->
    ?universe:Rsmr_net.Node_id.t list ->
    ?obs:Rsmr_obs.Registry.t ->
    ?net_mode:Rsmr_net.Network.mode ->
    members:Rsmr_net.Node_id.t list ->
    unit ->
    t
  (** [net_mode] selects the transport mode (default [`Sim]); the model
      checker passes [`Enumerate] so message delivery becomes its
      choice rather than a scheduled event.  It must be fixed at
      creation — the service sends messages while it boots.

      [universe] is every node id that may ever host a replica (defaults to
      [members]); nodes outside it cannot be reconfigured in.  Two extra
      ids are allocated above the universe for the directory node and the
      administrative client.  Client ids must not collide with either.

      [obs] is the run's Observatory registry (a fresh one is created when
      omitted): the network accounts into its ["net"] section, the service
      into ["svc"], blocks and instances into [{node; epoch}]-scoped
      labeled cells, and per-command lifecycle events are emitted on its
      trace bus whenever the bus has a listener. *)

  val cluster : t -> Rsmr_iface.Cluster.t
  (** The protocol-agnostic face used by workloads and benchmarks. *)

  val set_on_dir_update :
    t ->
    (epoch:int ->
     members:Rsmr_net.Node_id.t list ->
     leader:Rsmr_net.Node_id.t option ->
     unit) ->
    unit
  (** Observer invoked whenever this service would inform its directory
      node of a configuration change: at wedge time (new epoch, no leader
      yet) and when the new epoch's leader announces itself (leader
      hint).  The sharded platform hooks this to republish each shard's
      freshest configuration into the {e replicated} directory service;
      the default is a no-op.  Called synchronously on the node that
      produced the update — treat it as a local tap, not a delivery
      guarantee. *)

  val canonical_state : t -> string
  (** Canonical encoding of the complete composed-system state — every
      host's instance stack (including block fingerprints, sessions and
      app snapshots), the directory, client endpoints, and all
      enumerate-mode message queues — with unordered collections in
      sorted order.  Two systems that will behave identically under
      identical future choices encode identically; virtual-clock
      readings and timer due-times are excluded (timer {e presence} is
      included).  The model checker hashes this for visited-state
      dedup.  Not a wire format: nothing decodes it. *)

  (** {1 Introspection (tests, invariant checks)} *)

  val engine : t -> Rsmr_sim.Engine.t
  val net : t -> Wire.t Rsmr_net.Network.t
  val directory_id : t -> Rsmr_net.Node_id.t
  val current_epoch : t -> int
  val current_members : t -> Rsmr_net.Node_id.t list

  val counters : t -> Rsmr_sim.Counters.t
  (** Keys include "applied", "wedges", "residuals",
      "residuals_resubmitted", "transfers", "local_activations",
      "chunks_sent", "transfer_bytes", "replies" and "redirects".
      "transfers" counts instances activated by a fetched snapshot —
      one per joiner, plus any continuing member whose old instance
      retired unwedged; "local_activations" counts members that
      continued and took the state from their own wedge.  This is the
      live ["svc"] section view of {!obs} (cells labelled
      [("section", "svc")]). *)

  val obs : t -> Rsmr_obs.Registry.t
  (** The run's Observatory registry (same handle as
      [(cluster t).obs]). *)

  val app_state : t -> Rsmr_net.Node_id.t -> app_state option
  (** Application state of the newest live activated epoch on a node;
      [None] on a node with none. *)

  val host_epoch : t -> Rsmr_net.Node_id.t -> int option
  (** Newest live epoch on a node (activated or not). *)

  val live_instances : t -> Rsmr_net.Node_id.t -> int
  (** Live epochs on the node that run a replica. *)

  val current_leader : t -> Rsmr_net.Node_id.t option
  (** The node leading the newest epoch's instance, if any (and not
      crashed). *)

  val epoch_stats : t -> Rsmr_net.Node_id.t -> epoch_stat list
  (** Audit records for every epoch the node runs or has retired (the
      record kept at retirement), oldest first; empty if it hosts none. *)
end

module Make_on (_ : Rsmr_smr.Block_intf.S) (Sm : Rsmr_app.State_machine.S) :
  S with type app_state = Sm.t
(** Compose an arbitrary building block. *)

module Make (Sm : Rsmr_app.State_machine.S) : S with type app_state = Sm.t
(** The default composition over static Multi-Paxos
    ({!Rsmr_smr.Paxos_block}). *)
