(** Shared scaffolding for the experiment suite: uniform construction of
    every protocol under test and the standard measurements. *)

module Kv_protocol : module type of Rsmr_protocol.Protocol.Make (Rsmr_app.Kv)
(** Every protocol over the KV store. *)

type setup = {
  engine : Rsmr_sim.Engine.t;
  cluster : Rsmr_iface.Cluster.t;
  leader : unit -> Rsmr_net.Node_id.t option;
}

val make :
  ?seed:int ->
  ?latency:Rsmr_net.Latency.t ->
  ?drop:float ->
  ?bandwidth:float ->
  Rsmr_protocol.Protocol.t ->
  members:Rsmr_net.Node_id.t list ->
  universe:Rsmr_net.Node_id.t list ->
  setup
(** Build a KV-backed cluster of the given protocol. *)

val run_to : setup -> float -> unit
(** Run the engine to an absolute simulation time. *)

val wait_for_live :
  setup -> target:Rsmr_net.Node_id.t list -> deadline:float -> float option
(** Run until the cluster's advertised membership equals [target]
    (sorted) and an elected leader sits inside [target] — the point at
    which the new configuration is actually serving.  Returns the
    simulation time when it happened, or [None] at the deadline. *)

val downtime : Rsmr_workload.Driver.stats -> from_:float -> window:float -> float
(** Worst client-perceived latency among requests completing in
    [from_, from_+window] — the unavailability proxy used throughout the
    evaluation.  NaN when nothing completed in the window (total outage
    longer than the window). *)

val default_universe : int -> Rsmr_net.Node_id.t list
(** [0 .. n-1]. *)
