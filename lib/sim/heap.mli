(** Binary min-heap keyed by (time, sequence) pairs, used as the engine's
    event queue.  Entries carry an integer id so they can be cancelled
    lazily. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills vacated slots (so a popped payload is unreachable from
    the heap) and is what {!top} returns on an empty heap. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert a payload at the given priority.  Ties on [time] break on
    [seq], so FIFO order among simultaneous events is preserved. *)

val top : 'a t -> 'a
(** The minimum entry's payload, or [dummy] if the heap is empty.  No
    option or tuple is built, so reading the head allocates nothing;
    a caller that needs the head's key keeps it in the payload. *)

val drop : 'a t -> unit
(** Remove the minimum entry (a no-op on an empty heap).  The removed
    payload is unreachable from the heap afterwards (its slot is reset
    to [dummy]), and capacity shrinks once occupancy drops below a
    quarter of it — a burst of scheduled events does not pin memory for
    the rest of the run. *)

val iter : 'a t -> (float -> int -> 'a -> unit) -> unit
(** Visit every live entry in unspecified (array) order.  The callback
    must not push to or pop from the heap. *)

val to_sorted_list : 'a t -> (float * int * 'a) list
(** Non-destructive snapshot of all entries sorted by [(time, seq)] —
    the order repeated {!top} and {!drop} would yield them.  Used by the
    model checker's enabled-set enumeration, where the queue must be
    observed without being drained. *)
