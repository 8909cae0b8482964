(** Static key-range routing: the total (lexicographic) key order cut
    into contiguous ranges, one per shard.

    Range boundaries are plain strings compared lexicographically; shard
    [i] owns keys in [[b_i, b_{i+1})] with implicit sentinels at both
    ends.  Routing is a binary search — O(log shards) per command. *)

type t

val of_boundaries : string list -> t
(** [of_boundaries [b1; ...; b_{n-1}]] makes an [n]-shard keyspace; the
    boundaries must be sorted ascending.  Raises [Invalid_argument]
    otherwise. *)

val ranges : shards:int -> n_keys:int -> t
(** Even cut of the canonical workload keyspace
    ([Rsmr_workload.Keys.key_name 0 .. n_keys-1]) into [shards]
    contiguous index ranges. *)

val shards : t -> int
val shard_of : t -> string -> int
