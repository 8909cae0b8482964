(** Ablation: speculative handoff x residual re-submission. *)

val experiment : Table.experiment
