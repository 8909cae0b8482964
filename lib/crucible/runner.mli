(** Execute one scenario against one protocol stack and collect everything
    the invariant oracles need.

    A run is: build the cluster (over {!Mixed}), schedule the fault script
    (event offsets are relative to the workload start), drive a closed-loop
    client workload for the scenario's duration, repair all faults at the
    end of the issue window, then wait for {e quiescence} (every submitted
    command answered) and {e convergence} (all advertised members expose
    byte-identical application state, stable for half a virtual second).
    Both waits are bounded; missing a bound is recorded in the report
    rather than raised.  For a fixed scenario the entire run is
    bit-for-bit deterministic. *)

type report = {
  proto : Rsmr_protocol.Protocol.t;
  scenario : Scenario.t;
  history : Rsmr_checker.History.t;
      (** client-observed completed operations *)
  submitted : int;
  completed : int;
  acked_incr : int;
      (** sum of the increments whose replies the clients saw *)
  quiesced : bool;
  converged : bool;
  final_members : int list;
  final_states : (int * string) list;
      (** member → {!Mixed} snapshot at the end of the settle phase *)
  final_counter : int option;
      (** counter component of the first final state *)
  epoch_stats : (int * Rsmr_core.Service.epoch_stat list) list;
      (** per-universe-node instance audits; empty lists under Raft *)
  counters : (string * int) list;  (** protocol-level counters, sorted *)
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
(** [mutation] re-breaks the stack on purpose. *)

val first_client_id : int
(** Client ids start here — far above any replica universe the generator
    produces, so fault scripts can never name a client. *)
