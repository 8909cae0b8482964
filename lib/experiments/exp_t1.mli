(** Messages / bytes per command and per reconfiguration. *)

val experiment : Table.experiment
