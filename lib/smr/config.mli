(** A static configuration: the fixed member set one SMR instance runs
    over.  Instances are identified by [instance_id]; the reconfigurable
    composition allocates consecutive ids (epochs). *)

type t = { instance_id : int; members : Rsmr_net.Node_id.t list }

val make : instance_id:int -> members:Rsmr_net.Node_id.t list -> t
(** Deduplicates and sorts members. Raises [Invalid_argument] on []. *)

val size : t -> int
val quorum : t -> int
(** Majority: [size/2 + 1]. *)

val is_member : t -> Rsmr_net.Node_id.t -> bool
val others : t -> Rsmr_net.Node_id.t -> Rsmr_net.Node_id.t list
(** All members except the given one. *)

val encode : Rsmr_app.Codec.Writer.t -> t -> unit
val decode : Rsmr_app.Codec.Reader.t -> t
[@@rsmr.deterministic] [@@rsmr.total]
