(** The configuration directory: maps the (single, here) service to its
    freshest known configuration, so clients that lost track of the member
    set can recover.

    Runs on one dedicated simulated node.  The state is literally a
    one-entry {!Rsmr_app.Dir_app} map under a fixed service name, so the
    single-service oracle and the replicated directory share one
    implementation of the monotone-epoch merge rule — the paper notes the
    directory itself can be replicated with the same machinery, and the
    sharded platform does exactly that. *)

type t

val create : unit -> t

val update :
  t -> epoch:int -> members:Rsmr_net.Node_id.t list ->
  leader:Rsmr_net.Node_id.t option -> unit
(** Monotone in [epoch]: stale updates are ignored; a same-epoch update may
    refresh the leader hint. *)

val epoch : t -> int
val members : t -> Rsmr_net.Node_id.t list
val leader : t -> Rsmr_net.Node_id.t option
