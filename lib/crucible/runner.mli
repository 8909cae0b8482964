(** Execute one scenario against one protocol stack and collect everything
    the invariant oracles need.

    The scenario's shape picks the stack: a single service over {!Mixed},
    or the sharded platform over Kv ({!Rsmr_shard.Platform.Core} or
    {!Rsmr_shard.Platform.Vr} after the protocol's block, its strategy
    driving every service, the replicated directory's included).

    A run is: build the stack, schedule the fault script (event offsets
    are relative to the workload start), drive a closed-loop client
    workload for the scenario's duration, repair all faults at the end of
    the issue window, then wait for {e quiescence} (every submitted
    command answered) and {e convergence} (in every epoch chain, all
    advertised members expose byte-identical application state, stable
    for half a virtual second).  Both waits are bounded; missing a bound
    is recorded in the report rather than raised.  For a fixed scenario
    the entire run is bit-for-bit deterministic. *)

(** One epoch chain: ["service"], or the platform's ["directory"] and
    ["shard 0"], ["shard 1"], ... *)
type chain = {
  name : string;
  members : int list;  (** advertised members at the end, sorted *)
  states : (int * string) list;
      (** member → application snapshot at the end of the settle phase *)
  epoch_stats : (int * Rsmr_core.Service.epoch_stat list) list;
      (** per-host instance audits over the universe or pool; empty
          lists under Raft *)
}

val agrees : chain -> bool
(** Every member's state is present and all are equal. *)

type platform = {
  dir_regressions : int;  (** {!Rsmr_shard.Dir_client.regressions} *)
  rebalances : int;  (** started *)
  rebalances_done : int;
}

type report = {
  proto : Rsmr_protocol.Protocol.t;
  scenario : Scenario.t;
  history : Rsmr_checker.History.t;
      (** client-observed completed operations *)
  submitted : int;
  completed : int;
  duplicates : int;  (** second replies to answered requests *)
  acked_incr : int;
      (** sum of the increments whose replies the clients saw *)
  quiesced : bool;
  converged : bool;
  chains : chain list;
  platform : platform option;  (** [None] for a single service *)
  counters : (string * int) list;
      (** the registry's ["svc"] section, sorted by name *)
  spans : Rsmr_obs.Span.summary;
      (** command-lifecycle spans stitched from the run's trace bus *)
  obs : Rsmr_obs.Registry.t;
      (** the run's Observatory registry, span aggregates already
          {!Rsmr_obs.Span.record}ed — export with
          [Rsmr_obs.Registry.save] for an [rsmr-metrics/1] artifact *)
  events_executed : int;  (** engine callbacks — the determinism probe *)
  end_time : float;
}

val run :
  ?mutation:Rsmr_core.Options.mutation ->
  Rsmr_protocol.Protocol.t ->
  Scenario.t ->
  report
(** [mutation] re-breaks the stack on purpose.
    @raise Invalid_argument on a platform scenario under Raft. *)

val first_client_id : int
(** Client ids start here — far above any replica universe the
    generator produces, so fault scripts can never name a client. *)
