(** The soak driver: generate → run → judge → (on failure) shrink →
    print a one-line replay command.

    This is the loop behind [rsmr crucible] and the CI soak
    step: a scenario list crossed with the protocol stacks, each run judged
    by the {!Oracle}s, failures minimized by {!Shrink} and reported
    with a [dune exec] one-liner that replays the shrunk scenario
    bit-for-bit. *)

type failure = {
  f_proto : Rsmr_protocol.Protocol.t;
  f_mutation : Rsmr_core.Options.mutation option;
      (** the bug the run re-introduced on purpose, if any *)
  f_seed : int;
  f_scenario : Scenario.t;  (** the original generated scenario *)
  f_failed : (string * string) list;  (** oracle name → reason *)
  f_shrunk : Scenario.t;
  f_shrunk_failed : (string * string) list;
      (** what the shrunk scenario trips — possibly an earlier oracle than
          the original *)
  f_attempts : int;  (** re-runs the shrinker spent *)
}

type summary = {
  runs : int;
  passed : int;  (** runs with no failing oracle *)
  inconclusive : int;  (** passing runs with ≥1 inconclusive verdict *)
  failures : failure list;
}

val soak :
  ?lin_budget:int ->
  ?shrink:bool ->
  ?mutation:Rsmr_core.Options.mutation ->
  ?on_run:
    (Rsmr_protocol.Protocol.t ->
    Scenario.t ->
    Runner.report ->
    (Oracle.outcome, failure) result ->
    unit) ->
  protos:Rsmr_protocol.Protocol.t list ->
  scenarios:Scenario.t list ->
  unit ->
  summary
(** Cross product of scenarios × protos, in order: run and judge each
    pair; on failure, minimize (unless [shrink:false]) and re-judge the
    minimized scenario.  [on_run] fires after each run with the run's
    report (of the scenario as given, not a minimized one) and its
    verdict (every failure also lands in the summary). *)

val pp_failure : Format.formatter -> failure -> unit
