(** Reconfiguration as a first-class strategy.

    The composition layer executes an epoch change as a sequence of
    stages — {b wedge} (the old instance decides its last command),
    {b prepare} (the new epoch's instance is bootstrapped), {b state
    transfer} (chunked snapshot pull), {b directory publish}, {b handoff}
    (the new instance activates and takes client traffic) and {b residual
    re-submission} (commands decided after the wedge index are replayed
    into the new epoch).  A strategy value picks a policy for each stage;
    {!Rsmr_core.Service.Make} is a driver over the chosen value.  A
    strategy is only these stage dials: which stack runs it (which block,
    or the native Raft baseline, which has no stages) is a protocol,
    {!Rsmr_protocol.Protocol}.

    Strategy values are descriptive records, not behaviour: all stage
    logic lives with the driver that interprets them, which is what keeps
    the default {!composed} value replay-identical to the historical
    hard-wired sequence. *)

type prepare =
  [ `At_wedge
    (** bootstrap the next epoch only once the [Reconfig] commits *)
  | `Early
    (** Matchmaker-style: when the [Reconfig] is {e submitted}, the
        proposed members that hold no state start their snapshot fetch,
        which the old members serve at the wedge.  The next epoch's
        instance is still created only at the wedge, and takes the
        transfer over; the bootstrap-to-fetch round trip leaves the
        wedged window *) ]

type handoff =
  [ `Speculative  (** new epoch starts its replica before the snapshot *)
  | `Blocking  (** new epoch waits for the full snapshot (stop-the-world) *)
  ]

type residuals =
  [ `Resubmit  (** leader replays post-wedge commands into the new epoch *)
  | `Client_retry  (** dropped; clients retry against the new epoch *) ]

type t = {
  name : string;  (** the label metrics and reports carry *)
  prepare : prepare;
  handoff : handoff;
  residuals : residuals;
}

val composed : t
(** The paper's default: prepare at wedge, speculative handoff, leader
    residual re-submission. *)

val matchmaker : t
(** Matchmaker-style early prepare; otherwise identical to {!composed}. *)

val stopworld : t
(** Blocking handoff, no residual replay. *)
