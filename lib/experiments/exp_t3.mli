(** Leader crash during reconfiguration: recovery. *)

val experiment : Table.experiment
