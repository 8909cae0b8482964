(** The soak driver: generate → run → judge → (on failure) shrink →
    print a one-line replay command.

    This is the loop behind [test/crucible_main.exe] and the CI soak
    step: a seed range crossed with the protocol stacks, each run judged
    by the five {!Oracle}s, failures minimized by {!Shrink} and reported
    with a [dune exec] one-liner that replays the shrunk scenario
    bit-for-bit. *)

type failure = {
  f_proto : Rsmr_protocol.Protocol.t;
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

val check_scenario :
  ?lin_budget:int ->
  ?shrink:bool ->
  Rsmr_protocol.Protocol.t ->
  Scenario.t ->
  (Oracle.outcome, failure) result
(** Run and judge; on failure, minimize (unless [shrink:false]) and
    re-judge the minimized scenario. *)

val soak :
  ?lin_budget:int ->
  ?shrink:bool ->
  ?on_run:(Rsmr_protocol.Protocol.t -> int -> Oracle.outcome option -> unit) ->
  protos:Rsmr_protocol.Protocol.t list ->
  seeds:int list ->
  unit ->
  summary
(** Cross product of seeds × protos, in order.  [on_run] fires after each
    run with [Some outcome] on pass and [None] on failure (the failure
    itself lands in the summary). *)

val pp_failure : Format.formatter -> failure -> unit
