(** State-transfer payload: the application snapshot taken at the wedge
    point plus the session table, chunked for shipping. *)

type t = { app : string; sessions : string }

val encode : t -> string
val decode : string -> t
[@@rsmr.deterministic] [@@rsmr.total]

val chunk_bytes : int
(** State-transfer chunk bytes (64 KiB), shared by the composition layer's
    epoch handoff and the Raft baseline's InstallSnapshot. *)

val chunk : string -> size:int -> string list
(** Split into pieces of at most [size] bytes (at least one piece, even for
    the empty string, so transfer completion is unambiguous). *)

val assemble : string list -> string
