(** Static Viewstamped Replication — the second, independent
    non-reconfigurable building block (VR Revisited, Liskov & Cowling
    2012, without the recovery and reconfiguration sub-protocols: the whole
    point of the composition is that the block does not need them).

    Differences from the Multi-Paxos block that make it a genuine test of
    block-agnosticism: primaries rotate round-robin by view number (no
    ballots), backups accept operations only in sequence, and view changes
    ship the whole log in [DoViewChange]/[StartView] — VR's classic naive
    cost, faithfully metered by the network's byte accounting. *)

(** VR's wire protocol, exposed concretely for tests and documentation. *)
module Msg : sig
  type t =
    | Request of { value : string }
    | Prepare of { view : int; op : int; value : string; commit : int }
        (** [Prepare_multi] for a run of one op *)
    | Prepare_ok of { view : int; op : int }
        (** [Prepare_ok_multi] for a run of one op *)
    | Commit of { view : int; commit : int }
    | Start_view_change of { view : int }
    | Do_view_change of {
        view : int;
        log : string list;
        last_normal : int;
        commit : int;
      }
    | Start_view of { view : int; log : string list; commit : int }
    | Get_state of { view : int; from : int }
    | New_state of { view : int; from : int; ops : string list; commit : int }
    | Request_multi of { values : string list }
        (** forwarded vector submission, proposed as one batch *)
    | Prepare_multi of {
        view : int;
        from_op : int;
        values : string list;  (** consecutive ops from [from_op] *)
        commit : int;
      }
        (** a run of ops; a run of one is sent as [Prepare] *)
    | Prepare_ok_multi of { view : int; from_op : int; upto : int }

  val size : t -> int
  (** Wire size in bytes: a single counting pass over the same body as
      {!encode}, allocating nothing. *)

  val encode : t -> string
  val decode : string -> t
  [@@rsmr.deterministic] [@@rsmr.total]
  val tag : t -> string

  val tag_of_encoded : string -> string
  (** {!tag} recovered from an encoded payload's leading wire byte alone,
      without decoding the payload.  Unrecognised input maps to
      ["invalid"]. *)
end

include Block_intf.S with module Msg := Msg

(** {1 Introspection (tests)} *)

val view : t -> int
