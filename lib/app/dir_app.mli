(** The configuration directory as a replicated application.

    Same monotone-epoch semantics as the single-node oracle
    ({!Rsmr_core.Directory} in prose): per service name, a strictly newer
    epoch replaces the entry, a same-epoch update may refresh the leader
    hint, and stale updates are ignored — so redelivered or reordered
    [Update]s are harmless.  Hosting this on a composed RSMR instance is
    the paper's own recursion: the directory replicated "with the same
    machinery".

    Node ids are plain ints ([rsmr_app] does not depend on [rsmr_net]);
    the hosting layer converts. *)

type entry = { epoch : int; members : int list; leader : int option }

type command =
  | Lookup of string
  | Update of { name : string; epoch : int; members : int list;
                leader : int option }

type response = Info of entry option | Acked

include State_machine.S
  with type command := command
   and type response := response

val find : t -> string -> entry option
