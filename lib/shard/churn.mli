(** [dir_churn]: seeded fault scenarios against the sharded platform.

    Each seed derives a schedule of machine crashes, directory-overlay
    partitions (single-replica cuts and full blackouts) and rolling
    cross-shard rebalances, all under closed-loop client load on every
    shard; after an endgame repair the run must drain and pass the
    platform oracles:

    - [dir_epoch_monotone] — no lookup reply carries an older directory
      epoch than a previous reply for the same shard (zero
      {!Platform.S.dir_epoch_regressions});
    - [exactly_once] — no duplicate client replies;
    - [liveness] — every submitted command answered within 40 s of the
      repair;
    - [redirect_bound] — no {!Rsmr_client.Endpoint.redirect_storm};
    - [convergence] — each shard's caught-up members hold identical
      application state, and a majority is caught up;
    - [epoch_prefix] — {!Rsmr_core.Service.epoch_audit} passes on the
      directory's epoch chain and on each shard's;
    - [rebalance_progress] — at least one attempted rebalance completed.

    Runs over any composed protocol: its block picks the platform
    ({!Platform.Core} or {!Platform.Vr}) and its strategy drives every
    service of the platform, the replicated directory's included.  The
    Raft {e baseline} cannot appear here: it is not a
    {!Rsmr_smr.Block_intf.S}, and the replicated directory is built by
    composing blocks. *)

val protocols : Rsmr_protocol.Protocol.t list
(** The family's default set: core and core/vr, one per block, as in
    experiment T4. *)

type report = {
  r_proto : Rsmr_protocol.Protocol.t;
  r_seed : int;
  r_commands : int;
  r_replies : int;
  r_rebalances : int;  (** completed (of attempted) rolling moves *)
  r_redirects : int;
  r_regressions : int;
  r_failures : (string * string) list;  (** (oracle, detail), empty = pass *)
}

val failures : report -> (string * string) list
val pp_report : Format.formatter -> report -> unit

val replay_command : Rsmr_protocol.Protocol.t -> int -> string
(** Shell line that reruns one seed. *)

val run :
  ?quick:bool -> ?storm:bool -> Rsmr_protocol.Protocol.t -> seed:int -> report
(** One scenario.  [storm] replaces the seeded fault schedule with the
    deterministic redirect-storm shape (directory blackout + concurrent
    rebalances of both shards).
    @raise Invalid_argument on raft. *)

val storm_seed : int

val redirect_storm : ?quick:bool -> Rsmr_protocol.Protocol.t -> report
(** The PR-4 redirect-storm regression scenario against the replicated
    directory. *)
