(** Strategy comparison under reconfiguration churn. *)

val experiment : Table.experiment
