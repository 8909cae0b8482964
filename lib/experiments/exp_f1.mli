(** Throughput vs cluster size (no reconfiguration). *)

val experiment : Table.experiment
