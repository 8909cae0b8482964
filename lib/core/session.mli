(** Client session table: the deduplication state that makes command
    application exactly-once even though clients retry, pipeline several
    outstanding requests, and residual commands are re-submitted across
    configurations.

    Every applied (client, seq) is remembered with its response, so a
    duplicate ordering of any previously applied request re-replies instead
    of re-executing.  Part of the replicated state: applied
    deterministically on every replica and shipped inside snapshots during
    state transfer.  Responses below the client's acknowledged watermark
    are trimmed (see {!trim}), keeping the table bounded by in-flight
    windows rather than run length.

    The table is mutable and sits on every replica's decide path: once a
    client's response window has reached its steady depth, {!check},
    {!record} and {!trim} allocate nothing.  Hand a table to a second
    owner (e.g. the next configuration's instance) only as a {!copy}. *)

type t

val create : unit -> t
(** A fresh, empty table. *)

val copy : t -> t
(** An independent table with the same contents: mutating either one
    never changes the other's {!encode}. *)

val check :
  t -> client:Rsmr_net.Node_id.t -> seq:int -> [ `New | `Dup of string | `Stale ]
(** [`New]: never applied, execute it.  [`Dup rsp]: already applied —
    re-reply the cached response, do not re-execute.  [`Stale]: at or below
    the client's trimmed watermark — already applied {e and} acknowledged,
    so neither execute nor reply (duplicates can trail long after the ack,
    e.g. residual re-submissions across a reconfiguration). *)

val record : t -> client:Rsmr_net.Node_id.t -> seq:int -> rsp:string -> unit
(** Remember [rsp] as the response to [(client, seq)], replacing any
    earlier one.  An unknown client enters the table with watermark -1. *)

val trim : t -> client:Rsmr_net.Node_id.t -> below:int -> unit
(** Forget cached responses for sequences < [below] — the client has
    acknowledged them (piggybacked watermark), so it will never ask for
    those replies again.  The watermark itself is retained (the {e floor}),
    so late duplicates of trimmed sequences are still recognized as
    [`Stale] rather than re-executed.  Keeps session tables (and therefore
    snapshots) bounded by the clients' in-flight windows rather than by run
    length.  A client not in the table is left out of it. *)

val cardinal : t -> int
(** Total number of remembered (client, seq) pairs. *)

val encode : t -> string
(** Canonical bytes: clients in ascending id order, each with its
    watermark and its responses in ascending seq order. *)

val decode : string -> t
[@@rsmr.deterministic] [@@rsmr.total]
