(** The model checker's choice alphabet.

    A state's outgoing transitions are the enabled choices the harness
    reports; a {e path} is the choice sequence from the initial state.
    Since the whole system is deterministic given the choices (seeded
    RNG, virtual time), a path IS a state — counterexamples are stored
    and replayed as choice sequences, bit-for-bit. *)

type t =
  | Deliver of { src : int; dst : int; bulk : bool }
      (** Deliver the head of the directed link's FIFO queue for the
          class: bulk ([State_chunk]) or control. *)
  | Drop of { src : int; dst : int; bulk : bool }
      (** Lose the head of the directed link's FIFO queue for the
          class. *)
  | Timer of { seq : int }
      (** Fire the pending engine timer with this id. *)
  | Crash of int
  | Recover of int
  | Client_op of { op : int }  (** Submit the [op]-th scripted command. *)
  | Reconfig of { r : int }
      (** Submit the [r]-th scripted membership change. *)

val equal : t -> t -> bool

val seq_to_string : t list -> string
(** [";"]-joined compact shell-safe tokens (e.g. ["d1-2"], bulk
    ["D1-2"], ["t17"]) — the trace format of counterexample files,
    frontier entries and [--replay]. *)

val seq_of_string : string -> t list option
[@@rsmr.deterministic]
(** Inverse of {!seq_to_string}; [None] on any malformed token. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering for counterexample traces. *)
