(** The one fault-injection / control surface every overlay presents.

    Single-service clusters ({!Cluster.t}) and the sharded platform
    expose no other crash/partition/reconfigure entry points: harnesses
    drive both through a [control] value.
    What a fault {e means} is the overlay's business — e.g. [Partition]
    splits replica links on a single service but cuts only the
    directory overlay on the platform (machine-level crashes already
    cover the shards). *)

type fault =
  | Crash of Rsmr_net.Node_id.t  (** node stops sending/receiving *)
  | Recover of Rsmr_net.Node_id.t
  | Partition of Rsmr_net.Node_id.t list list  (** connectivity groups *)
  | Heal  (** undo [Partition] *)

type control = {
  fault : fault -> unit;
  reconfigure : Rsmr_net.Node_id.t list -> unit;
      (** submit a membership change (platform: directory membership) *)
}

(** Convenience wrappers over [control]. *)

val crash : control -> Rsmr_net.Node_id.t -> unit
val recover : control -> Rsmr_net.Node_id.t -> unit
val partition : control -> Rsmr_net.Node_id.t list list -> unit
val heal : control -> unit
val reconfigure : control -> Rsmr_net.Node_id.t list -> unit
