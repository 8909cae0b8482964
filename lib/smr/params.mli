(** Timing parameters shared by the static SMR building blocks (the
    Multi-Paxos {!Replica} and {!Vr}; the Raft baseline reuses them).
    Defaults are tuned for the LAN latency model (sub-millisecond RTT) and
    have batching and pipelining ON: leaders coalesce submissions for
    [batch_delay] into multi-command runs and keep up to [max_outstanding]
    uncommitted log positions (Paxos slots, VR ops) in flight. *)

type t = {
  heartbeat_interval : float;  (** leader heartbeat period, seconds *)
  election_timeout_min : float;
  election_timeout_max : float;
      (** follower election timeout is drawn uniformly from this range,
          Raft-style, to break dueling-proposer livelock *)
  batch_delay : float;
      (** leader-side batching window ({!Rsmr_sim.Batch}): submissions
          are accumulated for this long (seconds) and proposed as one
          multi-command run, a single message per follower.  0 disables
          the window (a lone submission is proposed immediately as a
          single-command proposal; vector submissions via [submit_many]
          still travel as one batch). *)
  batch_max : int;  (** flush early at this many buffered commands *)
  max_outstanding : int;
      (** pipelining cap: the leader keeps at most this many uncommitted
          slots in flight; further submissions wait in the batch buffer
          until commit progress frees a slot.  Also bounds the resend
          window for stuck slots. *)
  skip_phase1 : bool;
      (** A deliberate bug, for the model checker's teeth test only
          ({!Rsmr_core.Options.mutation}): a Multi-Paxos member whose
          election timer fires leads at its next ballot on its own log,
          without phase 1 — the shortcut only the ballot-0 owner may
          take.  [false] everywhere else; VR and Raft ignore it. *)
}

val with_batching : float -> t
(** [default] with the given batching window. *)

val unbatched : t
(** [default] with the batching window disabled (one proposal broadcast
    per command) — the pre-batching ablation baseline. *)

val default : t

val resend_interval : float
(** The leader's re-broadcast period for stuck slots (Paxos) or ops (VR),
    in seconds: 0.05. *)
