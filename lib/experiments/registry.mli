(** The experiment suite: one entry per reproduced table/figure. *)

val all : Table.experiment list
val find : string -> Table.experiment option
(** Case-insensitive lookup by id ("f2", "T1", ...). *)
