(** Paxos ballot numbers: a (round, proposer) pair ordered
    lexicographically, so concurrent proposers never collide. *)

type t = { round : int; node : Rsmr_net.Node_id.t }

val zero : t
(** Smaller than any ballot a proposer can own. *)

val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool

val next : t -> Rsmr_net.Node_id.t -> t
(** [next b me] is the smallest ballot owned by [me] greater than [b]. *)

val pp : Format.formatter -> t -> unit
val encode : Rsmr_app.Codec.Writer.t -> t -> unit
val decode : Rsmr_app.Codec.Reader.t -> t
[@@rsmr.deterministic] [@@rsmr.total]
