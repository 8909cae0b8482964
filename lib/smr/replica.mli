(** One replica of a {e non-reconfigurable} Multi-Paxos state machine
    replication instance.

    The instance totally orders opaque string commands over a fixed member
    set ({!Config.t}); it has no notion of membership change — that is the
    whole point of the paper, which composes these black boxes into a
    reconfigurable service ({!Rsmr_core}).

    A replica plays all three Paxos roles.  The configuration's first
    member (in {!Config.t}'s sorted order) owns ballot [{round = 0; node =
    me}] and leads from creation without phase 1: no acceptor can hold a
    lower ballot and a fresh replica has accepted nothing, so its takeover
    window is empty.  That is what lets a new configuration order commands
    while its state is still in transit, with no election on the handoff's
    critical path.  Every other member starts an election after a
    randomized timeout and establishes leadership with phase 1 over the
    uncommitted log suffix, always at a ballot above 0; a leader keeps its
    followers with heartbeats.  Decided commands are delivered to
    [on_decide] in strict index order, exactly once per index on any given
    replica.

    Ballot 0 is safe only for a replica that has never accepted anything
    in this configuration.  A replica restarting without memory must never
    re-enter ballot 0, nor rejoin as if fresh: it could overwrite a value
    it had accepted and a quorum had chosen.  Recovery must keep it silent
    until it has learned the instance's state from a quorum.

    The replica is transport-agnostic: it emits messages through the [send]
    callback given at creation and consumes them via {!handle}; the host is
    responsible for wiring those to a network. *)

include Block_intf.S with type Msg.t = Msg.t
(** [create] raises [Invalid_argument] unless [me] is a member of
    [config].  [obs] receives the accounting "elections", "takeovers",
    "proposals", "resent" (slots re-sent by the leader's resend tick) and
    "commits".  A follower forwards a submission to the
    leader it believes in (best effort: the client layer owns retries).
    [handle], [submit] and [submit_many] are flow roots
    ([@@rsmr.deterministic] [@@rsmr.total] on their definitions):
    everything reachable from them must be deterministic and total. *)

val kick_election : t -> unit
(** Test hook: trigger an immediate election attempt. *)
