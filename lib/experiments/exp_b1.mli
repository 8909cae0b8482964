(** Batching ablation: window vs messages/command vs latency. *)

val experiment : Table.experiment
