(** Client of the {e replicated} directory service.

    One session (one client node id) multiplexes all directory traffic
    for a platform: shard-configuration lookups on behalf of stale
    endpoints, and publishes that mirror each shard's configuration
    changes into the directory state machine ({!Rsmr_app.Dir_app}).

    Protocol-agnostic: talks to the directory through its
    {!Rsmr_iface.Cluster.t} facade, so the directory can be hosted on any
    composed service.  Installs itself as the cluster's reply handler —
    the directory cluster must not be driven by anything else.

    Lookups for the same name are single-flight and sequential (later
    callers queue), which makes the observed-epoch stream per name
    monotone whenever the directory service is linearizable — the
    crucible's [dir-epoch-monotone] oracle asserts {!regressions} stays
    zero. *)

type t

val attach :
  cluster:Rsmr_iface.Cluster.t -> client:Rsmr_net.Node_id.t -> unit -> t
(** [client] must not collide with any node or client id already
    registered on the directory service's network. *)

val lookup : t -> name:string -> (Rsmr_app.Dir_app.entry option -> unit) -> unit
(** Resolve [name]; the continuation fires when the directory replies
    (after however many retries the endpoint needs).  [None] means the
    directory has no entry yet. *)

val publish :
  t -> name:string -> epoch:int -> members:int list -> leader:int option ->
  unit
(** Mirror a configuration change into the directory.  Stale publishes
    (epoch older than the newest already published, or a same-epoch
    publish carrying no new leader hint) are dropped locally; the
    directory state machine would ignore them anyway. *)

val last_epoch : t -> name:string -> int
(** Newest epoch a lookup reply has carried for [name]; [-1] before the
    first reply. *)

val regressions : t -> int
(** Lookup replies that carried an older epoch than a previous reply for
    the same name — must stay 0 over a linearizable directory. *)

val counters : t -> Rsmr_sim.Counters.t
(** A live view of the client's own tallies, which no registry exports.
    Keys: "lookups", "lookup_replies", "publishes", "publish_acks". *)
