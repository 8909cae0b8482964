(** A submission batcher: the coalescing window shared by the static
    blocks' leaders and the client endpoint.

    Values accumulate in a buffer until the window closes: [delay]
    seconds after the first value of an empty window, or at once when
    the buffer reaches [max] values.  The batcher then calls the [flush]
    callback bound at creation, and the owner decides how much of the
    buffer goes ({!take}) and how a run is sent.  [delay <= 0] disables
    the window: every {!add} flushes at once.

    The owner keeps only what is its own: the cap on one flush (a
    pipelining window, or none), the message a run becomes, and where
    values go when it stops leading ({!drain}).

    {b Allocation.}  The buffer is a FIFO of two lists: {!add} and
    {!push} cons one cell onto its newest end, and a take reads its
    oldest end, which is rebuilt by one reversal of the newer values
    only when it runs dry.  So {!take} allocates the cells of its result
    plus, amortized, one reversed cell per value it removes, and never
    copies the values that stay: a leader whose pipeline cap bites over
    a backlog of thousands pays for the few values it proposes, not for
    the backlog.  A take of the whole buffer costs at most one cell per
    value.  {!mem} allocates nothing; {!contents} copies the buffer
    once a capped take has left values behind. *)

type 'a t

val create :
  Engine.t -> delay:float -> max:int -> flush:(unit -> unit) -> 'a t

val add : 'a t -> 'a -> unit
(** Buffer a value and apply the window rule: flush when [delay <= 0]
    or the buffer holds [max] values, else arm the window timer unless
    it is already armed. *)

val push : 'a t -> 'a -> unit
(** Buffer a value without the window rule (a vector submission, which
    its caller flushes as one run). *)

val take : 'a t -> int -> 'a list
(** [take b cap] removes and returns the [min cap (length b)] oldest
    values, oldest first, and disarms the window timer.  [cap <= 0]
    returns [[]] and leaves the batcher, timer included, untouched. *)

val drain : 'a t -> 'a list
(** Remove every value, oldest first, and disarm the timer. *)

val cancel : 'a t -> unit
(** Disarm the timer and keep the buffer (a halted owner). *)

val pump : 'a t -> unit
(** Flush values left behind by an earlier capped {!take}, unless the
    window is still open: an armed timer flushes them itself. *)

val mem : equal:('a -> 'a -> bool) -> 'a -> 'a t -> bool
(** [mem ~equal x b] is [true] when [b] buffers a value [equal] to [x]
    (a duplicate check on every submission, which must not copy the
    buffer). *)

val contents : 'a t -> 'a list
(** The buffer, newest first (for fingerprints: it may copy). *)

val armed : 'a t -> bool
(** The window timer is pending. *)
