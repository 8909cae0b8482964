(** A replica's Paxos log.  Slot values are opaque strings (the building
    block knows nothing about the commands it orders) plus protocol
    no-ops used to fill holes during leader takeover.

    {b Allocation.}  The log is parallel arrays in fixed chunks of 64
    slots: a slot's ballot, its kind, and one flag byte (populated,
    committed).  A chunk is allocated whole the first time the log
    reaches it and is never copied, so a decided slot costs two array
    cells and a byte; only the spine of chunk pointers grows, by
    doubling.  Within an allocated chunk {!set_at}, {!mark_committed},
    {!set_committed} and the readers {!is_populated}, {!ballot_at} and
    {!kind_at} allocate nothing (the kind is stored as given).  {!get},
    {!entries_from} and {!committed_values} build their entries on
    demand, for cold callers: phase 1, learn and fingerprints. *)

type kind = Noop | Value of string

type entry = { ballot : Ballot.t; kind : kind }

type t

val create : unit -> t

val length : t -> int
(** One past the highest slot written or marked. *)

val get : t -> int -> entry option

val set_at : t -> int -> ballot:Ballot.t -> kind -> unit
(** [set_at t i ~ballot kind] stores [kind] accepted at [ballot] in slot
    [i], populated from then on.  It does not look at the commit mark:
    callers leave committed slots alone. *)

val is_populated : t -> int -> bool

val ballot_at : t -> int -> Ballot.t
(** The ballot of a populated slot. *)

val kind_at : t -> int -> kind
(** The kind of a populated slot. *)

val is_committed : t -> int -> bool
val mark_committed : t -> int -> unit

val set_committed : t -> int -> kind -> unit
(** Install a known-chosen value (from a Learn response): stores it with
    whatever ballot and marks the slot committed. *)

val committed_prefix : t -> int
(** Largest [n] such that slots [0..n-1] are all committed. *)

val entries_from : t -> int -> (int * entry) list
(** All populated slots at index >= the argument, ascending. *)

val committed_values : t -> lo:int -> hi:int -> (int * kind) list
(** Committed slots in [lo, hi], ascending; skips uncommitted ones. *)

val pp_kind : Format.formatter -> kind -> unit
val encode_kind : Rsmr_app.Codec.Writer.t -> kind -> unit
val decode_kind : Rsmr_app.Codec.Reader.t -> kind
[@@rsmr.deterministic] [@@rsmr.total]
