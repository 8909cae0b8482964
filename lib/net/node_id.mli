(** Node identities.  Both replicas and clients live in one id space so the
    network can route uniformly.  Ids are small non-negative integers:
    the network keeps per-node and per-link state in arrays indexed by
    id. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
