(** Latency vs offered load (open loop, core protocol). *)

val experiment : Table.experiment
