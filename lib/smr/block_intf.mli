(** The contract a {e non-reconfigurable} SMR building block must satisfy to
    be composed into a reconfigurable service by {!Rsmr_core.Service}.

    This is the paper's interface boundary made explicit: anything that
    totally orders opaque byte commands over a fixed member set — with no
    notion of membership change — qualifies.  The repository provides two
    independent implementations: static Multi-Paxos
    ({!Rsmr_smr.Paxos_block}) and static Viewstamped Replication
    ({!Rsmr_smr.Vr}); the composition layer cannot tell them apart. *)

module type S = sig
  val block_name : string

  (** The block's wire messages, opaque to the composition layer (it
      tunnels them as bytes, tagged with the configuration epoch). *)
  module Msg : sig
    type t

    val encode : t -> string
    val decode : string -> t
    val size : t -> int
    val tag : t -> string

    val tag_of_encoded : string -> string
    (** [tag] recovered from an encoded payload's leading wire byte alone —
        no allocation, no payload decode — so per-message accounting can
        classify tunnelled bytes cheaply.  Total: unrecognised input maps
        to ["invalid"]. *)
  end

  type t
  (** One replica of one instance. *)

  val create :
    engine:Rsmr_sim.Engine.t ->
    params:Params.t ->
    config:Config.t ->
    me:Rsmr_net.Node_id.t ->
    send:(dst:Rsmr_net.Node_id.t -> Msg.t -> unit) ->
    ?broadcast:(Msg.t -> unit) ->
    ?obs:Rsmr_obs.Registry.t ->
    on_decide:(int -> string -> unit) ->
    unit ->
    t
  (** [on_decide] fires in strict slot order, exactly once per decided
      command on this replica.

      [obs], when provided, is the run's Observatory registry: the block
      accounts its internals (elections, proposals, commits, ...) into
      cells scoped by [{node = me; epoch = config.instance_id}], resolved
      once at creation so the per-event cost stays a ref bump.

      [broadcast msg], when provided, is used instead of per-destination
      [send] whenever the block addresses every other member of its
      configuration with the same message — letting the transport encode
      the payload exactly once for the whole fan-out.  It must be
      equivalent to calling [send ~dst msg] for every member except the
      block's own node. *)

  val handle : t -> src:Rsmr_net.Node_id.t -> Msg.t -> unit
  val submit : t -> string -> unit

  val submit_many : t -> string list -> unit
  (** Submit an ordered vector of commands as one batch: the block must
      preserve the vector's order and propose it with O(1) messages (one
      multi-command slot run) rather than one proposal per command.
      Equivalent to [List.iter (submit t)] w.r.t. ordering and delivery. *)

  val submit_msg : string -> Msg.t
  (** A message that, delivered to any replica of the instance, submits the
      command remotely (used to forward residual commands into an instance
      the sender does not host). *)

  val submit_many_msg : string list -> Msg.t
  (** Vector form of {!submit_msg}: one message that remotely submits the
      whole ordered batch (used to forward residuals across epochs without
      a per-command message storm). *)

  val is_leader : t -> bool
  val leader_hint : t -> Rsmr_net.Node_id.t option

  val halt : t -> unit
  (** Stop for good: no timer, message or submission acts again.  The log
      and {!commit_index} are kept; a host done with the replica drops it. *)

  val is_halted : t -> bool

  val commit_index : t -> int

  val fingerprint : t -> string
  (** Canonical encoding of the replica's complete protocol state —
      role, promises, log (values, ballots/views, commit marks),
      delivery watermarks, queued submissions — for model-checker
      visited-state dedup.  Two replicas with behaviourally identical
      state must produce identical bytes, so implementations serialize
      through the codec layer with all unordered collections emitted in
      sorted order; structural hashing ([Hashtbl.hash]) and wall-clock
      or timer due-times must not leak in.  Not a wire format: nothing
      ever decodes a fingerprint. *)
end
