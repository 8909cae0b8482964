(** A read-only, live view of named integer counts (messages sent, bytes
    transferred, commands committed, ...).

    Nothing writes through a [Counters.t]: the counts live elsewhere
    (registry cells, or a component's own mutable tallies), and the view
    reads them afresh on every call, so a view kept across time sees
    later counts. *)

type t

val make : (unit -> (string * int) list) -> t
(** [make read] is the view whose current contents [read ()] returns,
    in any order and without duplicate names. *)

val get : t -> string -> int
(** The current count under [name]; 0 if absent. *)

val to_list : t -> (string * int) list
(** The current counts, sorted by name. *)

val pp : Format.formatter -> t -> unit
