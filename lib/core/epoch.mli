(** The epoch change, steps 2–5 of the composition: the lifecycle of
    every configuration a host runs and the state transfer between
    them, as one pure state machine per host.

    A value is one map keyed by epoch: the host's instance of it, live
    or retired, the snapshot it donates into it, and its own fetch of
    it.  {!step} is the whole policy, in the [ReplicaNext(r, in, r',
    out)] shape: the service feeds it what happened and interprets the
    effects.  What apply mutates per command (the replica, the
    application state, the sessions and the audit numbers) stays with
    the service.  The rules:
    - A [Bootstrap] creates an instance once, never for a hosted or
      retired epoch.  Under speculative handoff it starts at once and
      buffers what it decides until it activates, with the state of its
      own wedge (a member of both configurations) or by transfer.
      Activation starts it if need be, replays the buffer in index
      order, and polls until the host leads it: then it announces
      itself to the directory, once.
    - The first decided [Reconfig] wedges an instance; later ones do
      nothing.  The wedge serves parked fetches, sends [Bootstrap]s to
      the new members and the directory (again every 0.25 s for 40
      rounds), pushes, and hands the state over locally.  The leader
      orders a drain barrier; once it is decided the instance retires,
      and its leader sends [Retire] to the others.  [Retire e] retires
      every epoch below [e].
    - A command decided past the wedge is a residual.  Under [Resubmit]
      the leader buffers it, and a zero-delay timer flushes the buffer
      into the next instance or, with none here, to the next
      configuration's {!boot_leader}.
    - Only a member new to the configuration fetches.  A host still
      running [e - 1] fetches only if that instance retires unwedged or
      no wedge activates [e] within one retry period (0.25 s).  A fetch
      asks one donor at a time ({!donor_order}), the next only after a
      whole period with no chunk: a moving transfer is never asked for
      twice.  Under push, the donor a joiner would ask first sends
      the snapshot at the wedge, and the joiner asks only once it
      stalls.
    - Chunks that arrive before the epoch's instance are kept for it;
      an epoch that retired or activated takes none.  Chunks are kept by
      index, so a wire [total] sizes nothing: another [total] restarts
      the record, and a chunk at or past it is not kept.  Chunks that do
      not decode are dropped, all of them.
    - A donor serves only members of the committed configuration; a
      fetch before its wedge is parked and served then.  Retiring epoch
      [x] drops every donation keyed below [x]. *)

module Node_id := Rsmr_net.Node_id

type t

val create :
  me:Node_id.t ->
  dir:Node_id.t ->
  strategy:Rsmr_iface.Reconfig_strategy.t ->
  members:Node_id.t list ->
  t
(** Host [me], with directory node [dir], at boot: it runs epoch 0 of
    [members], activated, if it is one of them.  The strategy's stage
    dials are read here and nowhere else. *)

val boot_leader : Node_id.t list -> Node_id.t option
(** A configuration's leader from boot (ballot 0, view 0): its lowest
    id. *)

val donor_order :
  me:Node_id.t -> members:Node_id.t list -> prev_members:Node_id.t list ->
  Node_id.t list
(** The donors [me] asks for its transfer into [members], in order: the
    previous members but [me], the new {!boot_leader} last, since its
    uplink is the busiest.  The first asked is at [me] modulo the
    list's length, so concurrent joiners spread over the donors. *)

type inst = private {
  members : Node_id.t list;  (** sorted *)
  retired : bool;
  started : bool;  (** its replica runs, or ran *)
  activated : bool;  (** it holds its starting state *)
  announced : bool;
  wedged_at : int option;
  next_members : Node_id.t list;
  early : (Node_id.t * string) list;  (** held for the replica, newest first *)
  spec_buf : (int * string) list;  (** decided before activation *)
  residual_buf : string list;  (** newest first *)
  flushing : bool;  (** the flush timer is armed *)
  reboots : int;  (** [Bootstrap] rounds left *)
}

val fold : (int -> inst -> 'a -> 'a) -> t -> 'a -> 'a
(** Over every epoch the host runs or retired, in epoch order. *)

val activated : t -> int -> bool
val wedged_at : t -> int -> int option
(** The reads a decided command makes; they allocate nothing. *)

val latest : t -> int * Node_id.t list
(** The newest epoch the host knows of, and its members. *)

val serving : t -> int
(** The newest live epoch whose replica runs, or -1: the one that takes
    client requests.  It allocates nothing. *)

type timer = Refetch | Flush | Drain | Rebootstrap | Announce
(** One per kind and epoch: a fetch's retry, the residual flush, the
    drain barrier, the next [Bootstrap] round, the next announce poll. *)

type input =
  | Bootstrap of { epoch : int; members : Node_id.t list; prev_members : Node_id.t list }
  | Early of { epoch : int; src : Node_id.t; data : string }
      (** A block message for an instance whose replica is not running. *)
  | Decided of { epoch : int; idx : int; value : string }
      (** By an instance that has not activated. *)
  | Wedge of {
      epoch : int; idx : int; members : Node_id.t list; snapshot : Snapshot.t;
      leader : bool }
      (** A [Reconfig] to [members] applied at [idx], and the state after
          it; [leader]: the host leads that instance, as below. *)
  | Residual of { epoch : int; value : string; leader : bool }
  | Drained of { epoch : int; leader : bool }  (** the barrier was decided *)
  | Retire of int
  | Fetch of { src : Node_id.t; epoch : int }
  | Chunk of { epoch : int; index : int; total : int; data : string }
  | Installed of int  (** an [Install]'s chunks decoded *)
  | Rejected of int  (** they did not *)
  | Fired of { timer : timer; epoch : int; leader : bool }

type effect_ =
  | Send of { dst : Node_id.t; msg : Wire.t }
  | Send_snapshot of { dst : Node_id.t; epoch : int; snapshot : Snapshot.t }
  | Forward of { dst : Node_id.t; epoch : int; values : string list }
      (** A residual batch, as the block's submission message. *)
  | Submit of { epoch : int; values : string list }
      (** To that epoch's replica, if it runs, as one batch. *)
  | Arm of { timer : timer; epoch : int; delay : float }
      (** (Re-)start it; feed [Fired] when it fires. *)
  | Cancel of { timer : timer; epoch : int }
  | Create of { epoch : int; members : Node_id.t list }
  | Start of { epoch : int; early : (Node_id.t * string) list }
      (** Start the replica and hand it [early], oldest first. *)
  | Halt of int
  | Wedged of { epoch : int; idx : int; snapshot : Snapshot.t }
  | Resubmitted  (** the residual at hand goes to the next epoch *)
  | Install of { epoch : int; chunks : string list }
      (** Every chunk is here, in index order: decode them into the
          instance's state and feed [Installed], or [Rejected]. *)
  | Activated of { epoch : int; local : bool }
      (** [local]: with the state of the instance of [epoch - 1]. *)
  | Replay of { epoch : int; decided : (int * string) list }
      (** Apply these, in order, as decided now. *)
  | Poll of int  (** feed [Fired] for that epoch's [Announce] now *)
  | Publish of { epoch : int; members : Node_id.t list; leader : Node_id.t option }
      (** Tell the service's directory observer: at the wedge with no
          leader, at the announce with this host. *)

val step : t -> input -> t * effect_ list
[@@rsmr.deterministic] [@@rsmr.total]
(** One transition.  The effects are in the order their sends and
    timers must happen: a wedge serves the parked fetches, sends the
    [Bootstrap]s and the directory update, then pushes, and an
    [Install] ends its list.  Store the new value before interpreting
    any effect: [Start], [Replay] and [Install] re-enter. *)

val write :
  Rsmr_app.Codec.Writer.t -> t -> audit:(int -> int * string) ->
  parts:(int -> string * string * string option) -> unit
[@@rsmr.deterministic]
(** Canonical bytes for the model checker's fingerprint: donations,
    fetches, live instances and retired ones, each in epoch order, a
    timer by its presence only.  [audit e]: the applied index and digest
    of [e]'s instance; [parts e]: its state, sessions and replica
    fingerprint.  Nothing decodes it. *)
