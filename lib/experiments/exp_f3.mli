(** Throughput vs reconfiguration churn rate. *)

val experiment : Table.experiment
