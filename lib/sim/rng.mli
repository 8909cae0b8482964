(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every randomized component of the simulator owns its own generator,
    obtained by {!split}ting a parent.  Two runs from the same root seed
    therefore make identical random choices regardless of how components
    interleave their draws.

    {b Allocation.}  The 64-bit state is held unboxed, so [int],
    [int_in], [bool] and [bernoulli] allocate nothing.  [bits64] allocates
    its boxed result, and [float], [exponential] and [uniform_in] their
    boxed float.
    The stream is that of the reference SplitMix64, and
    [test/test_sim.ml] pins it for seeds 0, 1 and 42. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound); [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean. *)

val uniform_in : t -> float -> float -> float
(** [uniform_in t lo hi] draws uniformly from [lo, hi). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. Raises [Invalid_argument] on []. *)
