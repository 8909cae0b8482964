(** The deterministic state machine every protocol in this repository
    replicates.

    States are persistent: applying a command returns a new state, and
    every state a caller still holds keeps its meaning, whatever was
    applied since.  That keeps replicas cheap to snapshot and lets the
    linearizability checker branch its search without copying.

    Persistence is a contract on the values, not on their layout.  An
    application may keep one mutable current version and represent every
    older one as the undo of the writes since ({!Kv} does).  Applying to
    the current version is then as cheap as a mutable store, while
    reading, applying to or snapshotting an older version first costs
    the writes in between, and the older version keeps those writes'
    undo records alive.  A caller that uses its states linearly, as the
    composition layer does, never pays that. *)

module type S = sig
  type t
  type command
  type response

  val name : string
  val init : unit -> t

  val apply : t -> command -> t * response
  (** Must be a pure function of (state, command). *)

  (** Wire encodings.  [decode_*] raise {!Codec.Truncated} on bad input. *)

  val encode_command : command -> string

  val read_command : Codec.Reader.t -> command
  (** Read one command from a reader positioned at its encoding, the
      bytes [encode_command] wrote, leaving the reader past what it read.
      It must read only forward from the reader's position, and raise
      only {!Codec.Truncated}, on any bytes.  The composition layer runs
      it inside the decided envelope's reader
      ({!Rsmr_app.Codec.Reader.framed}), so a command is decoded once and
      never copied out.  Every application derives [decode_command s] as
      [read_command (Codec.Reader.of_string s)]. *)

  val decode_command : string -> command
  val encode_response : response -> string
  val decode_response : string -> response

  (** Snapshots, for state transfer between configurations. *)

  val snapshot : t -> string
  val restore : string -> t

  val equal_response : response -> response -> bool
  val pp_command : Format.formatter -> command -> unit
  val pp_response : Format.formatter -> response -> unit
end
