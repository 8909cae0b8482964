(** The composition layer's network message union.

    [Block] tunnels a static-instance message (already encoded by the
    building block — the composition layer treats it as bytes), tagged
    with its epoch so a host can run replicas of several configurations at
    once — the overlap that speculative handoff exploits.  The remaining constructors are the
    glue the paper adds around the black boxes: bootstrap of new members,
    chunked state transfer, retirement of superseded instances, and the
    client/directory protocols. *)

type t =
  | Block of { epoch : int; data : string }
  | Client of Rsmr_client.Client_msg.t
  | Bootstrap of {
      epoch : int;
      members : Rsmr_net.Node_id.t list;
      prev_epoch : int;
      prev_members : Rsmr_net.Node_id.t list;
    }
  | Fetch_state of { epoch : int }
      (** "Send me the starting snapshot for [epoch]" — answered by a
          member of [epoch - 1] once it has wedged. *)
  | State_chunk of { epoch : int; index : int; total : int; data : string }
      (** One piece of that snapshot: the answer to a [Fetch_state] or,
          under a push strategy, sent unasked to a joiner at the wedge
          ({!Rsmr_iface.Reconfig_strategy.transfer}). *)
  | Retire of { epoch : int }
      (** "Instance [epoch - 1] has drained — halt every instance below
          [epoch]."  Sent by that instance's leader once its drain barrier
          is decided. *)
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

val write : Rsmr_app.Codec.Writer.t -> t -> unit
(** The wire-format body shared by {!encode} and {!size}; also lets a
    parent codec embed this message via [Writer.nested]. *)

val encode : t -> string
val decode : string -> t
[@@rsmr.deterministic] [@@rsmr.total]
val pp : Format.formatter -> t -> unit
val tag : t -> string

val bulk : t -> bool
(** The network's traffic class ({!Rsmr_net.Network.create}'s [bulk]):
    only snapshot chunks are bulk, so a transfer never holds consensus,
    client or epoch-change messages behind it on the sender's uplink. *)
