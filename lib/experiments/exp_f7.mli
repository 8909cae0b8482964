(** Directory staleness vs redirect pressure on the sharded platform. *)

val experiment : Table.experiment
