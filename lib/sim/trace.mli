(** Structured trace bus.

    Protocol code publishes events; tests, invariant checkers, the span
    collector and the history recorder subscribe.  Keeping the bus inside
    the simulator (as opposed to printing) lets checkers see exactly what
    happened in a run without parsing text.

    Events carry a {e typed} topic and structured [attrs] key/value
    fields; [message] is for humans only.  Anything downstream tooling
    consumes (span reconstruction, per-epoch accounting) must travel in
    [attrs], never be parsed back out of [message]. *)

type level = Debug | Info | Warn

type topic =
  [ `Paxos       (** consensus-block internals (elections, proposals) *)
  | `Vr          (** viewstamped-replication block internals *)
  | `Raft        (** baseline Raft internals *)
  | `Reconfig    (** epoch lifecycle: wedge, bootstrap, activation *)
  | `Net         (** network-level events *)
  | `Client      (** client endpoint events *)
  | `Lifecycle   (** per-command lifecycle events consumed by spans *)
  | `Other of string ]

type event = {
  time : float;
  node : int;          (** -1 when not attributable to a node *)
  topic : topic;
  level : level;
  message : string;    (** human-readable; never parsed by tooling *)
  attrs : (string * string) list;  (** structured fields, for tooling *)
}

type t

val create : unit -> t

val active : t -> bool
(** True when someone is listening (a subscriber is attached or retention
    is on).  Emit sites that would allocate to build [attrs] should guard
    on this so an unobserved run pays nothing. *)

val emit :
  t ->
  time:float ->
  node:int ->
  topic:topic ->
  ?level:level ->
  ?attrs:(string * string) list ->
  string ->
  unit

val subscribe : t -> (event -> unit) -> unit
(** Subscribers are invoked synchronously, in subscription order. *)

val keep : t -> bool -> unit
(** [keep t true] retains events in memory for later inspection (off by
    default, to keep long benchmark runs cheap). *)

val events : t -> event list
(** Retained events, oldest first. *)

val count : t -> topic:topic -> int
(** Number of emitted events on [topic] (counted even when retention is
    off). *)

val attr : event -> string -> string option
(** [attr ev k] looks up a structured field. *)
