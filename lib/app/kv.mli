(** Key-value store state machine — the workhorse application for the
    benchmarks (stands in for FRAPPE's elastic services).

    A fully persistent hash table by rerooting: the newest version owns
    one mutable table and each older version is an undo record, so a Put
    on the newest version allocates its undo record and no path copy.
    Touching an older version flips the table back to it, one record per
    write in between (see {!State_machine}).  Snapshots list the keys in
    sorted order, from a sorted-key cache that only a change to the key
    set clears. *)

type command =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of string * string option * string
      (** [Cas (k, expected, v)]: write [v] iff current value = expected. *)
  | Append of string * string

type response =
  | Value of string option
  | Ok
  | Cas_result of bool

include
  State_machine.S with type command := command and type response := response

val cardinal : t -> int
(** Number of live keys — used by state-size sweeps. *)

val find : t -> string -> string option
(** Direct lookup, for tests. *)
