(** Unavailability window vs state size (fleet replacement). *)

val experiment : Table.experiment
