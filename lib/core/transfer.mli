(** State transfer, step 4 of the epoch change: the wedge-point snapshot
    of epoch [e - 1] handed to the members of epoch [e], as one pure
    state machine per host.

    A value holds both sides of every transfer the host takes part in,
    keyed by the receiving epoch [e]:
    - the donor side: who asked before [e - 1] wedged here ([Asked]),
      then the committed members of [e] and the snapshot ([Ready]);
    - the joiner side: the donors in asking order, the chunks received,
      whether the retry timer is armed, and how many donors were asked.

    {!step} is the whole policy, in the [ReplicaNext(r, in, r', out)]
    shape: the service feeds it what happened and interprets the
    effects it returns, in order, against the engine and the network.
    The rules:
    - Only a member new to the configuration fetches.  A host still
      running [e - 1] gets the state from its own wedge (the local
      handoff), so it fetches only if that instance retires unwedged or
      no wedge activates it within one {!fetch_timeout}.
    - A fetch asks one donor at a time ({!donor_order}); the next is
      asked only after a whole {!fetch_timeout} with no chunk.  A moving
      transfer is waited for, never asked for twice.
    - Under push, a joiner does not ask: the donor its fetch would ask
      first sends the snapshot at the wedge, right after its
      [Bootstrap]s.  The joiner asks the next donor only once that push
      has stalled.
    - Chunks that arrive before the epoch's instance exists (a push that
      overtook the [Bootstrap]) are kept for it.  An epoch that retired,
      or activated, takes none.  Chunks are kept by index, so a chunk's
      [total] sizes nothing: one with another [total] restarts the
      record, and one at or past its [total] is not kept.
    - Chunks that do not decode as a snapshot (forged ones: [Rejected])
      are dropped, all of them.  The joiner waits one {!fetch_timeout}
      for more, as after any chunk, then asks the next donor.
    - A donor serves only members of the committed configuration; a
      fetch that comes before its wedge is parked and served then.
      Retiring epoch [x] drops every donation keyed [< x].  A joiner of
      such an epoch that has not activated is retired by its own epoch's
      [Retire], fetches a later snapshot, or asks a donor that left
      earlier and so still holds it.  The donation into [x] stays: a
      member of [x] that missed all of it may still ask for it after [x]
      drains. *)

type t

val create :
  me:Rsmr_net.Node_id.t -> transfer:Rsmr_iface.Reconfig_strategy.transfer -> t
(** No transfer yet, on host [me], under the strategy's [transfer] dial. *)

val fetch_timeout : float
(** Retry period for an unanswered snapshot fetch, seconds. *)

val boot_leader : Rsmr_net.Node_id.t list -> Rsmr_net.Node_id.t option
(** A configuration's leader from boot (ballot 0, view 0): its lowest
    id. *)

val donor_order :
  me:Rsmr_net.Node_id.t ->
  members:Rsmr_net.Node_id.t list ->
  prev_members:Rsmr_net.Node_id.t list ->
  Rsmr_net.Node_id.t list
(** The donors host [me] asks for its transfer into a configuration of
    [members], in order: the previous members but [me].  Under load the
    new configuration's {!boot_leader} has the busiest uplink, and
    control traffic goes before chunks there, so a snapshot from it can
    stall past {!fetch_timeout} and be asked for twice.  It is asked
    last.  The first donor asked is the one at [me] modulo the list's
    length: concurrent joiners pull from different old members instead
    of all melting one uplink. *)

type input =
  | Wedged of {
      epoch : int;
      members : Rsmr_net.Node_id.t list;
      prev_members : Rsmr_net.Node_id.t list;
      snapshot : Snapshot.t;
    }
      (** The host's instance of [epoch - 1], of [prev_members], wedged
          into [members] with [snapshot] as its wedge-point state. *)
  | Awaiting of {
      epoch : int;
      members : Rsmr_net.Node_id.t list;
      prev_members : Rsmr_net.Node_id.t list;
      prev_live : bool;
    }
      (** An instance of [epoch] was created without state;
          [prev_live]: the host still runs [epoch - 1]. *)
  | Fetch of { src : Rsmr_net.Node_id.t; epoch : int }
  | Chunk of {
      epoch : int;
      index : int;
      total : int;
      data : string;
      live : bool;  (** the host runs an instance of [epoch] *)
      retired : bool;  (** the host retired [epoch] *)
    }
  | Timer of int  (** the retry timer of that epoch's fetch fired *)
  | Activated of int  (** that epoch's instance took its state *)
  | Retired of { epoch : int; wedged : bool; next_live : bool }
      (** The host's instance of [epoch] retired, wedged or not;
          [next_live]: it runs an instance of [epoch + 1]. *)
  | Rejected of int
      (** The chunks that epoch's [Install] carried do not decode. *)

type effect_ =
  | Send_snapshot of {
      dst : Rsmr_net.Node_id.t;
      epoch : int;
      snapshot : Snapshot.t;
      push : bool;  (** unasked, at the wedge *)
    }
  | Send_fetch of { dst : Rsmr_net.Node_id.t; epoch : int }
  | Arm_timer of int
      (** (Re-)start that epoch's retry timer, for {!fetch_timeout};
          feed [Timer] when it fires. *)
  | Cancel_timer of int
  | Install of { epoch : int; chunks : string list }
      (** Every chunk is here, in index order: activate that epoch's
          instance with {!Snapshot.of_chunks}[ chunks], then feed
          [Activated], or [Rejected] if they do not decode. *)

val step : t -> input -> t * effect_ list
[@@rsmr.deterministic] [@@rsmr.total]
(** One transition.  The effects are in the order their sends and
    timers must happen; an [Install] is always last.  [Wedged] lists the
    serves of parked requests before the pushes, which go after the
    [Bootstrap]s. *)

val write : Rsmr_app.Codec.Writer.t -> t -> unit
(** Canonical bytes for the model checker's fingerprint: both tables in
    epoch order, a timer by its presence only, the chunks held by their
    indices.  Its size is bounded by what arrived, never by a chunk's
    wire [total].  Nothing decodes it. *)
