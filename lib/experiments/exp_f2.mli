(** Latency timeline across one fleet replacement. *)

val experiment : Table.experiment
