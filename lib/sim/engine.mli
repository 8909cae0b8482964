(** Deterministic discrete-event simulation engine.

    The engine owns virtual time (in seconds), an event queue, and the root
    random generator.  All protocol code runs inside event callbacks; a
    callback may schedule further events, send messages (via {!Rsmr_net}),
    and so on.  Execution is single-threaded and, for a fixed seed and
    program, bit-for-bit reproducible.

    {2 Timer lifecycle}

    Every timer is in exactly one of three states — pending, fired, or
    cancelled — and the transitions are one-way: a pending timer either
    fires (its callback runs) or is cancelled, and nothing ever leaves
    the two terminal states.  Concretely:

    - {!cancel} on an already-fired timer is a no-op that does {e not}
      reclassify it: the timer stays [`Fired] and still counts in
      {!events_executed}.  Callers cancelling defensively (e.g. a
      heartbeat being torn down from inside its own callback) get the
      obvious behaviour.
    - Two events scheduled for the same virtual instant run in
      scheduling order (FIFO by sequence number).  In particular
      [schedule ~delay:0.0] runs {e after} every event already queued
      for the current instant, never before — a zero-delay hand-off
      cannot jump the queue.

    These semantics are what the model checker's enabled-set relies on
    (a choice is either still available or definitively consumed), and
    they are pinned by regression tests in [test/test_sim.ml].

    {2 Allocation}

    A scheduled event costs its timer record, 5 words; {!schedule} adds
    2 for the boxed due time [now + delay], which {!at} takes from its
    caller.  Running it allocates nothing: {!run} and {!run_until} read
    the head through the heap's [top] and [drop], which build no option
    or tuple, and the clock takes the timer's own due time, which is its
    heap key.  Dead (cancelled) heads are discarded as they surface. *)

type t

type timer
(** Handle for a scheduled event, usable with {!cancel}. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes a fresh engine.  Default seed is 1. *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Rng.t
(** The engine's root generator.  Components should [Rng.split] it at
    construction time rather than drawing from it during the run. *)

val schedule : t -> delay:float -> (unit -> unit) -> timer
(** [schedule t ~delay f] runs [f] at [now t +. max delay 0.]. *)

val at : t -> time:float -> (unit -> unit) -> timer
(** [at t ~time f] runs [f] at absolute virtual time [time] (clamped to
    be no earlier than [now t]). *)

val cancel : t -> timer -> unit
(** Cancel a pending event.  Cancelling a fired or already-cancelled
    timer is a no-op — the timer keeps its terminal state. *)

val cancel_opt : t -> timer option -> timer option
(** [slot <- cancel_opt t slot] cancels the timer held in an optional
    slot, if any, and returns [None] to clear the slot. *)

val armed : timer option -> bool
(** An optional slot holds a pending timer.  Fingerprints record timer
    presence through this, never due-times. *)

val timer_state : timer -> [ `Pending | `Fired | `Cancelled ]
(** Observable lifecycle state, mainly for tests and the checker's
    enabled-set bookkeeping. *)

val timer_id : timer -> int
(** The engine-unique sequence number identifying this timer — the same
    id {!enabled} reports and {!fire} consumes. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, stopping when it holds no live event or when
    virtual time would exceed [until].  Events beyond [until] remain
    queued. *)

val events_executed : t -> int
(** Number of callbacks executed so far — a cheap determinism probe. *)

val pending_count : t -> int
(** Number of live pending timers, in O(1).  Part of the model
    checker's state fingerprint (the {e count} of outstanding timers is
    state; their absolute due-times are not, see DESIGN.md §11). *)

val run_until : t -> pred:(unit -> bool) -> deadline:float -> float option
(** Step the engine until [pred ()] holds, checking before every event.
    Returns the virtual time at which the predicate first held, or [None]
    when the queue drained or the next event would pass [deadline] (the
    clock is advanced to [deadline] in that case, pending events stay
    queued).  This is the quiescence probe used by the crucible runner:
    unlike polling with a fixed horizon, it observes the predicate at
    event granularity and never overshoots. *)

val settle : t -> pred:(unit -> bool) -> hold:float -> deadline:float -> bool
(** {!run_until} [pred], run [hold] seconds more and re-check, until it
    still holds after a hold ([true]) or {!run_until} gives up ([false]).
    A change still in flight cannot fake a settled state. *)

(** {2 Choice-point mode}

    The model checker does not pop events by virtual time; it reads the
    set of enabled events and decides which fires next.  The engine
    stays in whatever mode its caller uses — these functions compose
    with the normal API (a test can [run] to quiescence and then start
    choosing). *)

val enabled : t -> (int * float) list
(** All pending timers as [(id, due_time)] pairs, sorted by
    [(due_time, id)] — the order {!run} would execute them.  Fired and
    cancelled timers never appear. *)

val fire : t -> seq:int -> bool
(** [fire t ~seq] runs the pending timer with id [seq] now, advancing
    virtual time to [max (now t) due] (time never rewinds, even when
    the checker fires events out of due-time order).  Returns [false]
    if no pending timer has that id — a stale choice replayed against a
    diverged state, which callers should treat as a hard error. *)
