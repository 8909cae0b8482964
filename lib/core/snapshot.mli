(** State-transfer payload: the application snapshot taken at the wedge
    point plus the session table, chunked for shipping.

    A snapshot stays as its two parts from the wedge until its chunks
    leave the donor: {!chunk} cuts them straight from the parts, and
    {!of_chunks} rebuilds the parts from the chunks a joiner holds, so
    neither side builds the encoding whole.  Their bytes are those of
    {!encode}: the chunks are [encode t] cut every [size] bytes, and
    [of_chunks] is {!decode} of the chunks joined. *)

type t = { app : string; sessions : string }

val write : Rsmr_app.Codec.Writer.t -> t -> unit
(** [Writer.nested w write t] writes what [Writer.string w (encode t)]
    writes, without the intermediate string. *)

val encode : t -> string
val decode : string -> t
[@@rsmr.deterministic] [@@rsmr.total]

val chunk_bytes : int
(** State-transfer chunk bytes (64 KiB), shared by the composition layer's
    epoch handoff and the Raft baseline's InstallSnapshot. *)

val chunk : t -> size:int -> string list
(** [encode t] cut every [size] bytes, copying each part once: at least
    one piece, since an encoding is never empty.  Raises
    [Invalid_argument] if [size] is not positive. *)

val of_chunks : string list -> t
[@@rsmr.deterministic] [@@rsmr.total]
(** [decode (String.concat "" chunks)], copying each part once.  Raises
    {!Rsmr_app.Codec.Truncated} where [decode] would, and before it
    allocates a part whose length prefix exceeds the bytes held. *)
