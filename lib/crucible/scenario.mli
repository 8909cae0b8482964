(** Fault-injection scenarios: a cluster shape, a client workload window
    and a time-ordered fault script, with a compact single-argument text
    form for replay.

    A scenario is pure data — {!Generate} derives one from an integer
    seed, {!Runner} executes it, {!Shrink} edits it.  The text form
    ([to_string]/[of_string]) round-trips exactly, so the one-line
    reproducer the harness prints on failure replays bit-for-bit. *)

type shape =
  | Service of { members : int list; universe : int list }
      (** one replicated service over {!Mixed}: its epoch-0
          configuration, and every node that may ever host a replica *)
  | Platform of { pool : int list; shards : int list list; dir : int list }
      (** the sharded platform over Kv: the machine pool, each shard's
          initial members, and the replicated directory's members *)

type fault =
  | Crash of int  (** node stops sending/receiving (state kept) *)
  | Recover of int
  | Partition of int list list
      (** replica-side groups; the runner attaches clients, directory and
          admin to every group so only replica↔replica links split *)
  | Heal  (** undo [Partition] or [Isolate_dir] *)
  | Link_fault of { src : int; dst : int; drop : float }
      (** extra drop probability on one directed link *)
  | Clear_links
  | Duplicate of float  (** duplicate storm: per-message duplication rate *)
  | Drop of float  (** global loss weather *)
  | Reconfigure of int list  (** submit a membership change *)
  | Isolate_dir of int list
      (** platform: cut these directory replicas off; all of them black
          the directory out *)
  | Rebalance of int
      (** platform: move a node from shard [i] to shard [i + 1] (mod the
          shard count), drawn when the event fires *)

type event = { at : float; fault : fault }

type t = {
  seed : int;  (** drives every random choice of the run *)
  shape : shape;
  n_clients : int;
  duration : float;  (** client issue window, seconds of virtual time *)
  events : event list;  (** sorted by [at] *)
}

val sort_events : event list -> event list
(** Stable sort by time — ties keep list order, which is also the order
    the runner applies them in. *)

val to_string : t -> string
(** Compact form, e.g.
    [s=7;m=0,1,2;u=0,1,2,3,4;c=3;d=2.5;ev=0.41 crash 1|0.9 recover 1], or
    for the platform
    [s=7;p=0,1,2,3;sh=0,1/2,3;dir=0,2;c=4;d=2.8;ev=0.6 isolate 0,2|1.8 heal]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] describes the first malformed
    field, or a fault the shape cannot take.  Never raises. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
