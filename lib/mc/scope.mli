(** A bounded scope: the finite box of behaviours Scope exhausts.

    Explicit-state checking of a live implementation cannot enumerate
    an unbounded system, so every dimension of nondeterminism carries a
    budget.  Within those budgets the explorer visits {e every}
    reachable state — the claim "0 violations" means "no reachable
    violation within this scope", in the small-scope-hypothesis sense
    the TLA+ specs of comparable protocols rely on. *)

type t = {
  nodes : int;  (** initial member count (ids [1..nodes]) *)
  spare : int;  (** extra universe nodes reconfigurations can pull in *)
  reconfigs : int;  (** membership changes the admin may submit *)
  commands : int;  (** client commands that may be submitted *)
  crashes : int;  (** crash choices along one path *)
  drops : int;  (** message-loss choices along one path *)
  max_inflight : int;
      (** timer choices are suppressed while this many messages are
          queued — the in-flight bound that keeps heartbeat/resend
          traffic from growing queues without end *)
  timer_width : int;
      (** how many of the earliest pending timers are offered as
          choices at each state (1 = fire timers in due order only).
          Must be wide enough that a useful timer behind stale ones —
          e.g. a client retry behind two never-fired follower election
          timeouts — is still reachable. *)
  timer_fires : int;
      (** total timer choices along one path.  This is the budget that
          makes the state space finite: every message chain is either
          seeded by a scripted submission or by a timer fire, and
          without it repeated elections would grow ballot numbers (and
          so fingerprints) without bound. *)
  depth : int;
      (** maximum choices along one path — a termination backstop, not
          the primary bound; sized so budget-limited paths run out of
          enabled choices before they run out of depth *)
  batch : int;
      (** batching width under check: 0 (the presets) runs the stack
          with batching and client coalescing off — the historical
          checked configuration; [batch] ≥ 2 turns on the proposal
          window with [batch_max = batch] and client coalescing, so the
          multi-command slot path itself is inside the scope *)
}

val minimal : t
(** 3 nodes + 1 spare, 2 epochs (1 reconfiguration), 2 commands, one
    message loss, no crashes — the acceptance scope, exhaustible in CI. *)

val initial_members : t -> int list
val universe : t -> int list

val reconfig_members : t -> int -> int list
(** Member set the [r]-th scripted reconfiguration moves to: the
    membership window rotated [r+1] places along the universe, so each
    change retires one member and bootstraps one new one. *)

val parse : string -> (t, string) result
(** ["minimal"], ["small"], or either followed by comma-separated
    [key=value] overrides (e.g. ["minimal,commands=1,depth=20"]; a bare
    override list starts from [minimal]). *)

val to_string : t -> string
