(** One replica of a {e non-reconfigurable} Multi-Paxos state machine
    replication instance.

    The instance totally orders opaque string commands over a fixed member
    set ({!Config.t}); it has no notion of membership change — that is the
    whole point of the paper, which composes these black boxes into a
    reconfigurable service ({!Rsmr_core}).

    A replica plays all three Paxos roles.  Leadership is established with
    phase 1 over the uncommitted log suffix and maintained with heartbeats;
    followers start elections after a randomized timeout.  Decided commands
    are delivered to [on_decide] in strict index order, exactly once per
    index on any given replica.

    The replica is transport-agnostic: it emits messages through the [send]
    callback given at creation and consumes them via {!handle}; the host is
    responsible for wiring those to a network. *)

include Block_intf.S with type Msg.t = Msg.t
(** [create] raises [Invalid_argument] unless [me] is a member of
    [config].  [obs] receives the accounting "elections", "takeovers",
    "proposals" and "commits".  A follower forwards a submission to the
    leader it believes in (best effort: the client layer owns retries).
    [handle], [submit] and [submit_many] are flow roots
    ([@@rsmr.deterministic] [@@rsmr.total] on their definitions):
    everything reachable from them must be deterministic and total. *)

val kick_election : t -> unit
(** Test hook: trigger an immediate election attempt. *)
