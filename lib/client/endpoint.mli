(** Generic client endpoint: request/retry/redirect state machine.

    One endpoint represents one client session talking to a replicated
    service.  It tracks the believed configuration and leader, follows
    {!Client_msg.Redirect} hints, retries on timeout (rotating through
    members), and optionally refreshes its member list from a directory.
    At-most-once semantics are the server's job (session dedup); the
    endpoint just guarantees it keeps trying until a reply arrives.

    Transport-agnostic: wire it into a protocol's network with [send] and
    feed incoming messages to {!handle}. *)

type t

val create :
  engine:Rsmr_sim.Engine.t ->
  me:Rsmr_net.Node_id.t ->
  send:(dst:Rsmr_net.Node_id.t -> Client_msg.t -> unit) ->
  members:Rsmr_net.Node_id.t list ->
  ?lookup:((Rsmr_app.Dir_app.entry option -> unit) -> unit) ->
  ?req_timeout:float ->
  ?batch_window:float ->
  ?batch_max:int ->
  ?bus:Rsmr_sim.Trace.t ->
  on_reply:(seq:int -> rsp:string -> unit) ->
  unit ->
  t
(** [lookup k] asynchronously fetches the service's directory entry (from
    the single-service oracle or the replicated {!Rsmr_app.Dir_app}
    directory — both speak the same entry shape) and calls [k]; consulted
    after repeated timeouts.  The endpoint adopts the entry's member list
    when it is non-empty and ignores [None] / empty answers.
    [req_timeout] defaults to 0.5 s.

    [batch_window] > 0 turns on client-side coalescing: submissions
    accumulate for that long (or until [batch_max] of them, default 16)
    and ship as one {!Client_msg.Request_batch}.  Retries and redirects
    always travel as single requests, so at-most-once and ordering
    semantics are unchanged.  Default [0.]: every submission is sent
    immediately.

    [bus], when provided and listened to, receives per-command
    [`Lifecycle] events ("submit", "retry", "replied") with structured
    [client]/[seq] attrs — the client-side ends of command spans. *)

val submit : t -> seq:int -> payload:Client_msg.payload -> unit
(** Start (or restart) a request.  [seq] values must be unique per
    endpoint and increasing. *)

val handle : t -> src:Rsmr_net.Node_id.t -> Client_msg.t -> unit
[@@rsmr.deterministic] [@@rsmr.total]
(** Feed a message addressed to this client by node [src].  A redirect
    no older than the believed epoch sets the believed members and
    leader, dropping a hint that names [src].  A request's first redirect
    that leaves a believed leader re-sends at once.  An older-epoch
    redirect re-sends after 1 ms and is not counted as the request's
    redirect.  Any other re-sends after a 10–25 ms jitter.  All of these
    use the request's one timer slot, so duplicates add no sends, and
    every sixth redirect of a request, counted or not, drops the
    believed leader ({!redirect_storm}). *)

val outstanding : t -> int
(** Requests not yet answered. *)

val counters : t -> Rsmr_sim.Counters.t
(** A live view of the endpoint's own tallies, which no registry exports.
    Keys: "sent", "retries", "redirects", "replies", "lookups". *)

val redirect_storm : redirects:int -> submitted:int -> string option
(** Why [redirects] for [submitted] commands are a storm (over
    [50 × submitted + 500]), if they are: the checkers' redirect oracle. *)

val believed_members : t -> Rsmr_net.Node_id.t list
val believed_leader : t -> Rsmr_net.Node_id.t option

val fingerprint : t -> string
[@@rsmr.deterministic]
(** Canonical encoding of the endpoint's complete retry state (believed
    configuration, outstanding requests in sorted order, cursors) for
    model-checker visited-state dedup.  Deterministic; excludes timer
    due-times but includes timer presence. *)
