(** The command envelope the composition layer feeds through the static SMR
    building block.

    The static instance orders opaque bytes; this module is the only codec
    that interprets them.  [App] carries a client command together with its
    session coordinates (for exactly-once application); [Reconfig] is the
    paper's reconfiguration command — deciding one wedges the instance;
    [Drain] is the barrier a wedged instance's leader orders after
    everything it proposed, so the instance halts only once drained. *)

type t =
  | App of {
      client : Rsmr_net.Node_id.t;
      seq : int;
      low_water : int;  (** client's session-GC watermark *)
      cmd : string;
    }
  | Reconfig of {
      client : Rsmr_net.Node_id.t;
      seq : int;
      members : Rsmr_net.Node_id.t list;
    }
  | Drain

val size : t -> int
(** Wire size in bytes: a single counting pass over the same body as
    {!encode}, allocating nothing. *)

val encode : t -> string
val decode : string -> t
[@@rsmr.deterministic] [@@rsmr.total]
val pp : Format.formatter -> t -> unit
