(** Reconfiguration and failure schedules for experiments. *)

val at : Rsmr_iface.Cluster.t -> time:float -> (unit -> unit) -> unit
(** Run an arbitrary action at an absolute simulation time. *)

val reconfigure_at :
  Rsmr_iface.Cluster.t -> time:float -> Rsmr_net.Node_id.t list -> unit
(** Submit a membership change through the cluster's
    {!Rsmr_iface.Overlay.control} at an absolute simulation time.  Faults
    are scheduled the same way: [at c ~time (fun () ->
    Rsmr_iface.Overlay.crash c.control n)]. *)

val rolling_plan :
  universe:Rsmr_net.Node_id.t list ->
  size:int ->
  step:int ->
  Rsmr_net.Node_id.t list
(** [rolling_plan ~universe ~size ~step] is the member set after [step]
    single-position rotations through [universe]: step 0 is the first
    [size] nodes, each subsequent step drops the oldest member and adds the
    next unused node, wrapping around.  Gives an endless supply of distinct
    target configurations for churn experiments. *)

val periodic_reconfigure :
  Rsmr_iface.Cluster.t ->
  universe:Rsmr_net.Node_id.t list ->
  size:int ->
  start:float ->
  period:float ->
  count:int ->
  unit
(** Schedule [count] reconfigurations, [period] seconds apart, walking the
    {!rolling_plan}. *)
