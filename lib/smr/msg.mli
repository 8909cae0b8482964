(** Wire messages of the static Multi-Paxos building block.

    [Prepare]/[Promise] are phase 1 over the whole uncommitted log suffix;
    [Accept_multi]/[Accepted_multi] are phase 2 over a run of consecutive
    slots, and [Accept]/[Accepted] encode a run of one; [Heartbeat] renews
    leadership and carries the commit watermark; [Learn_req]/[Learn_rsp]
    let a lagging replica fetch chosen values; [Submit]/[Submit_multi]
    forward commands to the leader. *)

type t =
  | Prepare of { ballot : Ballot.t; from_index : int }
  | Promise of {
      ballot : Ballot.t;
      from_index : int;
      entries : (int * Log.entry) list;
      commit_index : int;
    }
  | Reject of { ballot : Ballot.t; higher : Ballot.t }
  | Accept of { ballot : Ballot.t; index : int; kind : Log.kind; commit_index : int }
  | Accept_multi of {
      ballot : Ballot.t;
      from_index : int;
      kinds : Log.kind list;  (** consecutive slots from [from_index] *)
      commit_index : int;
    }
  | Accepted of { ballot : Ballot.t; index : int }
  | Accepted_multi of { ballot : Ballot.t; from_index : int; upto : int }
  | Heartbeat of { ballot : Ballot.t; commit_index : int }
  | Learn_req of { from_index : int }
  | Learn_rsp of { entries : (int * Log.kind) list; commit_index : int }
  | Submit of { value : string }
  | Submit_multi of { values : string list }
      (** forwarded vector submission: ordered client commands that should
          be proposed as one batch by whoever is leader *)

val size : t -> int
(** Wire size in bytes: a single counting pass over the same body as
    {!encode}, allocating nothing. *)

val encode : t -> string
val decode : string -> t
[@@rsmr.deterministic] [@@rsmr.total]
val pp : Format.formatter -> t -> unit

val tag : t -> string
(** Short constructor name, for per-message-type counters. *)

val tag_of_encoded : string -> string
(** {!tag} recovered from an encoded payload's leading wire byte alone,
    without decoding the payload.  Unrecognised input maps to
    ["invalid"]. *)
