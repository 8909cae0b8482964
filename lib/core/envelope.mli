(** The command envelope the composition layer feeds through the static SMR
    building block.

    The static instance orders opaque bytes; this module is the only codec
    that interprets them.  [App] carries a client command together with its
    session coordinates (for exactly-once application); [Reconfig] is the
    paper's reconfiguration command — deciding one wedges the instance;
    [Drain] is the barrier a wedged instance's leader orders after
    everything it proposed, so the instance halts only once drained. *)

type 'cmd t =
  | App of {
      client : Rsmr_net.Node_id.t;
      seq : int;
      low_water : int;  (** client's session-GC watermark *)
      cmd : 'cmd;
    }
  | Reconfig of {
      client : Rsmr_net.Node_id.t;
      seq : int;
      members : Rsmr_net.Node_id.t list;
    }
  | Drain
(** An [App] is encoded from its command's wire bytes ([string t]) and
    decoded straight into the application's command. *)

val size : string t -> int
(** Wire size in bytes: a single counting pass over the same body as
    {!encode}, allocating nothing. *)

val encode : string t -> string

val decode : (Rsmr_app.Codec.Reader.t -> 'cmd) -> string -> 'cmd t
[@@rsmr.deterministic] [@@rsmr.total]
(** [decode read_command s] reads the envelope and an [App]'s command in
    one pass over one reader.  [read_command] runs on that reader,
    confined to the command's bytes ({!Rsmr_app.Codec.Reader.framed}),
    so it decodes exactly what [decode_command] of those bytes would,
    and no command substring or second reader is built. *)
