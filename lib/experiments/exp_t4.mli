(** Block interchangeability: composition over Multi-Paxos vs VR. *)

val experiment : Table.experiment
