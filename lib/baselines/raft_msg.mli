(** Raft RPCs (paper + dissertation §4 membership changes). *)

type t =
  | Request_vote of { term : int; last_index : int; last_term : int }
  | Vote of { term : int; granted : bool }
  | Append of {
      term : int;
      prev_index : int;
      prev_term : int;
      entries : (int * Raft_log.entry) list;
      commit : int;
    }
  | Append_reply of { term : int; success : bool; match_index : int }
  | Install_snapshot of {
      term : int;
      last_index : int;
      last_term : int;
      members : Rsmr_net.Node_id.t list;
      offset : int;
      data : string;  (** one chunk of application snapshot + session table *)
      is_last : bool;
    }
      (** Chunked as in the Raft paper (offset/done fields): a multi-MB
          snapshot sent as one message would monopolize the leader's uplink
          long enough to starve heartbeats and depose it. *)
  | Snapshot_chunk_ok of { term : int; offset : int }
      (** Follower ack for a non-final chunk; [offset] is the next byte
          expected. *)
  | Snapshot_reply of { term : int; last_index : int }

val write : Rsmr_app.Codec.Writer.t -> t -> unit
(** The wire-format body of {!encode}; also lets a parent codec embed
    this message via [Writer.nested]. *)

val read : Rsmr_app.Codec.Reader.t -> t
(** Decode in place from a reader (e.g. inside [Reader.framed]). *)

val encode : t -> string
val decode : string -> t
[@@rsmr.deterministic] [@@rsmr.total]
val pp : Format.formatter -> t -> unit
val tag : t -> string
