type t

val create : unit -> t

val dump : t -> string -> string list * int
[@@rsmr.deterministic] [@@rsmr.total]

val count : int list -> int list
[@@rsmr.deterministic]
