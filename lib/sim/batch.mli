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
    values go when it stops leading ({!drain}). *)

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

val contents : 'a t -> 'a list
(** The buffer, newest first, without copying. *)

val armed : 'a t -> bool
(** The window timer is pending. *)
