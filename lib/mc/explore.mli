(** The exhaustive explorer: enumerate every state the composition can
    reach inside a {!Scope}, checking every safety property at every
    state.

    States are identified by {!Harness.fingerprint} and reached by
    replaying their choice trace from scratch (see {!Harness}); the
    visited set is an in-memory fingerprint table.  Exploration is
    breadth-first, so a counterexample is a shortest one; the frontier
    can live on disk as per-depth layer files so CI soaks stay in bounded
    memory and the frontier itself becomes an artifact. *)

type stats = {
  visited : int;  (** distinct states (fingerprints) discovered *)
  transitions : int;  (** choices executed across all expansions *)
  max_depth : int;  (** longest trace of any discovered state *)
  exhausted : bool;
      (** true iff exploration ran out of new states with no violation
          and without hitting [max_states]; pruning at the scope's depth
          bound does not negate exhaustion (depth is part of the scope) *)
  violation : (string * Choice.t list) option;
      (** first property failure and the choice trace that reaches it *)
  coverage : Harness.coverage;
      (** union of milestone coverage over every explored transition *)
}

type progress = visited:int -> transitions:int -> depth:int -> unit

val run :
  proto:Rsmr_protocol.Protocol.t ->
  scope:Scope.t ->
  mutation:Rsmr_core.Options.mutation option ->
  ?max_states:int ->
  ?frontier_dir:string ->
  ?on_progress:progress ->
  unit ->
  stats
(** Explore until the scope is exhausted, a violation is found, or
    [max_states] distinct states have been visited.  [frontier_dir]
    switches the frontier to disk-backed layer files
    [layer_NNN.frontier], one ';'-joined choice trace per line.
    [on_progress] is invoked every 500 new states. *)

val render_counterexample :
  proto:Rsmr_protocol.Protocol.t ->
  scope:Scope.t ->
  mutation:Rsmr_core.Options.mutation option ->
  Choice.t list ->
  string
(** Replay a violating trace step by step into a human-readable report:
    each choice, the state summary after it, the violated property, and
    a copy-pasteable [rsmr scope] reproducer line. *)
