(** Aggregate throughput vs shard count over a shared pool. *)

val experiment : Table.experiment
