(** The protocols under test, and the one place that builds them.

    A protocol is either a {e composed} service — one of the two
    composable static blocks (Multi-Paxos or VR) under a reconfiguration
    strategy — or the natively reconfigurable Raft baseline.  The
    experiment tables, the crucible, Scope and every [rsmr] subcommand
    name protocols from this table; {!Make} builds them.  A crucible
    platform scenario builds from a composed protocol's block, which
    Raft lacks. *)

type block =
  | Paxos  (** {!Rsmr_smr.Paxos_block} *)
  | Vr  (** {!Rsmr_smr.Vr} *)

type kind =
  | Composed of { block : block; strategy : Rsmr_iface.Reconfig_strategy.t }
  | Raft

type t = {
  name : string;  (** unique key used by CLIs, tables and replay lines *)
  aliases : string list;  (** accepted alternative names ({!find}) *)
  kind : kind;
}

val core : t
(** The paper's protocol over Multi-Paxos.  Alias ["composed"]. *)

val matchmaker : t
val core_vr : t

val core_nospec : t
(** Ablation: ordering waits for state transfer. *)

val core_noresid : t
(** Ablation: residual commands wait for a client retry. *)

val stopworld : t
(** Halt + transfer + restart.  Alias ["stop-the-world"]. *)

val raft : t

val all : t list
(** The seven protocols above, in the order the CLI lists them. *)

val crucible : t list
(** What the crucible soaks: every registered strategy over Multi-Paxos,
    raft, then every registered strategy over VR. *)

val find : string -> t option
(** Lookup by [name] or alias over {!all} and {!crucible}. *)

val strategy_name : t -> string
(** The strategy's name, or ["raft"] for raft. *)

module Make (Sm : Rsmr_app.State_machine.S) : sig
  val service : block -> (module Rsmr_core.Service.S with type app_state = Sm.t)
  (** The composed service over a block: the one place a block picks
      its {!Rsmr_core.Service} instantiation.  {!create} builds through
      it, and so does Scope, which needs the service's enumerate-mode
      network and [canonical_state]. *)

  type stack = {
    cluster : Rsmr_iface.Cluster.t;
    leader : unit -> Rsmr_net.Node_id.t option;
    epoch_stats : Rsmr_net.Node_id.t -> Rsmr_core.Service.epoch_stat list;
        (** empty under raft *)
    service_ids : Rsmr_net.Node_id.t list;  (** directory + admin client *)
    set_link : src:int -> dst:int -> drop:float -> unit;
    clear_links : unit -> unit;
    set_duplicate : float -> unit;
    set_drop : float -> unit;
    app_state : Rsmr_net.Node_id.t -> Sm.t option;
  }
  (** The built stack: the cluster's [control] carries
      crash/recover/partition/heal/reconfigure; the network-weather dials
      and state introspection are the other fields. *)

  val create :
    engine:Rsmr_sim.Engine.t ->
    ?latency:Rsmr_net.Latency.t ->
    ?drop:float ->
    ?bandwidth:float ->
    ?smr_params:Rsmr_smr.Params.t ->
    ?mutation:Rsmr_core.Options.mutation ->
    t ->
    members:Rsmr_net.Node_id.t list ->
    universe:Rsmr_net.Node_id.t list ->
    stack
  (** [mutation] re-breaks a composed stack on purpose
      ({!Rsmr_core.Options.mutation}); raft ignores it. *)
end
