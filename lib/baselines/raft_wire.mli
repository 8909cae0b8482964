(** Network message union for the Raft baseline: RPCs, the shared client
    protocol, and the same directory messages the core service uses (so
    clients of both protocols recover from full fleet replacement the same
    way). *)

type t =
  | Rpc of Raft_msg.t
  | Client of Rsmr_client.Client_msg.t
  | Dir_update of {
      epoch : int;
      members : Rsmr_net.Node_id.t list;
      leader : Rsmr_net.Node_id.t option;
    }
  | Dir_lookup
  | Dir_info of {
      epoch : int;
      members : Rsmr_net.Node_id.t list;
      leader : Rsmr_net.Node_id.t option;
    }

val size : t -> int
(** Wire size in bytes: a single counting pass over the same body as
    {!encode}, allocating nothing. *)

val encode : t -> string
val decode : string -> t
[@@rsmr.deterministic] [@@rsmr.total]
val tag : t -> string
