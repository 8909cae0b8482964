(** Plain-text result tables, one per reproduced figure/table. *)

type t = {
  id : string;  (** experiment id, e.g. "F2" *)
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
}

type experiment = {
  id : string;  (** as in the table it prints *)
  title : string;
  run : ?quick:bool -> unit -> t;
      (** [quick] shrinks durations/sweeps for smoke runs (default
          [false]) *)
}
(** One reproduced table or figure; each [Exp_*] module exports one. *)

val make :
  id:string -> title:string -> headers:string list ->
  ?notes:string list -> string list list -> t

val print : t -> unit
(** Render to stdout with aligned columns. *)

val cell_f : float -> string
(** Format a float compactly ("3.1", "0.004", "1250"). *)

val cell_ms : float -> string
(** Seconds rendered as milliseconds with unit. *)
