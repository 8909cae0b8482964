(** The crucible's composite state machine: one replicated object holding a
    register, a KV store and a monotone counter side by side.

    Running all three under a single service keeps one history per run
    while covering three oracle angles at once: the register and KV feed
    the linearizability checker with cheap-to-branch and realistic state
    respectively, and the counter turns any lost or doubly-applied command
    into an arithmetic discrepancy the exactly-once oracle can detect
    without searching. *)

type command =
  | Reg of Rsmr_app.Register.command
  | Kv of Rsmr_app.Kv.command
  | Cnt of Rsmr_app.Counter.command

type response =
  | Reg_r of Rsmr_app.Register.response
  | Kv_r of Rsmr_app.Kv.response
  | Cnt_r of Rsmr_app.Counter.response

include
  Rsmr_app.State_machine.S
    with type command := command
     and type response := response

val counter_value : t -> int
(** Current value of the counter component. *)

val incr_of_encoded : string -> int option
(** [Some n] iff the encoded command is a counter increment of [n];
    [None] for other commands and on garbage input. *)

val object_of_encoded : string -> string option
(** The one object an encoded command touches: ["reg"], ["kv:"] followed
    by its key, or ["cnt"]; [None] on garbage input.  Linearizability is
    local (Herlihy & Wing), so the crucible checks each object's
    sub-history on its own. *)
