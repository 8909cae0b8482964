(** The bridge between the explorer and the real protocol stack.

    A harness owns one live composed service (over {!Rsmr_app.Counter},
    built through {!Rsmr_protocol.Protocol.Make.service}, so any block
    under any strategy) in enumerate-mode networking plus the
    exploration bookkeeping: which scripted workload steps have been
    taken, which nodes are down, what the client has been told, and the
    committed-prefix witness table.

    States are never snapshotted — they cannot be, the protocol state is
    a web of closures and mutable records.  Instead a state is reached
    by replaying its choice sequence from {!create}: the engine seed and
    virtual clock make that bit-for-bit deterministic, which
    {!fingerprint} (and a dedicated test) relies on. *)

exception Divergent of Choice.t
(** Raised by {!apply} when a stored choice is not applicable — a
    replayed path diverged from the run it was recorded on.  Indicates
    a determinism bug (or a trace for a different scope/proto). *)

type t

val create :
  proto:Rsmr_protocol.Protocol.t ->
  scope:Scope.t ->
  mutation:Rsmr_core.Options.mutation option ->
  unit ->
  t
(** Fresh initial state of a composed protocol: its block under its
    strategy.  [mutation] re-introduces a known bug
    ({!Rsmr_core.Options.mutation}) so the checker's teeth can be
    tested: exploration must then find a violation.
    @raise Invalid_argument on raft, which has no composition layer. *)

val enabled : t -> Choice.t list
(** Outgoing transitions of the current state, deterministically
    ordered, already filtered by the scope's budgets.  Empty once
    {!violation} is set. *)

val apply : t -> Choice.t -> unit
(** Execute one choice against the live system, then run every safety
    property on the resulting state (first failure latches into
    {!violation}).  @raise Divergent if the choice is not enabled. *)

val replay :
  proto:Rsmr_protocol.Protocol.t ->
  scope:Scope.t ->
  mutation:Rsmr_core.Options.mutation option ->
  Choice.t list ->
  t
(** [create] + [apply] each choice in order (stopping early if a
    violation latches) — how the explorer materialises a frontier state
    and how counterexamples are reproduced. *)

val fingerprint : t -> Fingerprint.t
[@@rsmr.deterministic]
(** Content hash of the canonical service state plus the exploration
    bookkeeping that gates enabledness.  Equal fingerprints mean the
    states are interchangeable for exploration purposes. *)

val violation : t -> string option
(** First safety-property failure observed on this path, if any. *)

val summary : t -> string
(** Human-readable one-state digest (virtual time, per-node epoch
    stats, counter values) for counterexample traces. *)

(** {2 Coverage}

    Which protocol milestones exploration actually reached — the
    "did the scope exercise anything interesting" sanity signal that a
    bare 0-violations claim lacks. *)

type coverage = {
  cov_wedged : bool;  (** some instance wedged (a reconfig was decided) *)
  cov_activated : bool;  (** some epoch [>= 1] instance activated *)
  cov_retired : bool;  (** some superseded instance retired *)
  cov_replies : int;  (** client replies received *)
  cov_max_counter : int;  (** highest counter value on any replica *)
}

val coverage_empty : coverage
val coverage_union : coverage -> coverage -> coverage
val coverage : t -> coverage
