(** Reconfiguration as a first-class strategy.

    The composition layer executes an epoch change as a sequence of
    stages — {b wedge} (the old instance decides its last command),
    {b bootstrap} (the new epoch's instance is created), {b state
    transfer} (the chunked wedge-point snapshot), {b directory publish},
    {b handoff} (the new instance activates and takes client traffic) and
    {b residual re-submission} (commands decided after the wedge index
    are replayed into the new epoch).  A strategy value picks a policy
    for each stage; {!Rsmr_core.Service.Make} is a driver over the
    chosen value.  A
    strategy is only these stage dials: which stack runs it (which block,
    or the native Raft baseline, which has no stages) is a protocol,
    {!Rsmr_protocol.Protocol}.

    Strategy values are descriptive records, not behaviour: all stage
    logic lives with the driver that interprets them, which is what keeps
    the default {!composed} value replay-identical to the historical
    hard-wired sequence. *)

type transfer =
  [ `Pull
    (** each joiner asks an old member for the snapshot once its
        instance exists *)
  | `Push
    (** after Matchmaker Paxos: each member that wedges sends the
        snapshot, right after its [Bootstrap]s, to every joiner whose
        first-choice donor it is, so the joiner's request round trip
        leaves the wedged window.  A joiner asks the next donor only
        once a push has stalled *) ]

type handoff =
  [ `Speculative  (** new epoch starts its replica before the snapshot *)
  | `Blocking  (** new epoch waits for the full snapshot (stop-the-world) *)
  ]

type residuals =
  [ `Resubmit  (** leader replays post-wedge commands into the new epoch *)
  | `Client_retry  (** dropped; clients retry against the new epoch *) ]

type t = {
  name : string;  (** the label metrics and reports carry *)
  transfer : transfer;
  handoff : handoff;
  residuals : residuals;
}

val composed : t
(** The paper's default: pull transfer, speculative handoff, leader
    residual re-submission. *)

val matchmaker : t
(** Push transfer; otherwise identical to {!composed}. *)

val stopworld : t
(** Blocking handoff, no residual replay. *)
