(** Wing–Gong linearizability checker.

    Searches for a total order of the recorded operations that (a) respects
    real time — an operation may only be linearized before another if it
    was invoked before that other one completed — and (b) is legal for the
    sequential state machine.  Memoizes visited (pending-set, state) pairs,
    which makes realistic low-contention histories check in linear-ish
    time; a [max_states] budget guards against the exponential worst
    case. *)

module Make (_ : Rsmr_app.State_machine.S) : sig
  type result =
    | Linearizable
    | Not_linearizable
    | Inconclusive  (** search budget exhausted *)

  val check : ?max_states:int -> History.t -> result
  (** [max_states] defaults to 2_000_000 visited configurations. *)
end
