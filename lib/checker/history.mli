(** Concurrent operation histories, recorded from live runs and fed to the
    linearizability checker. *)

type op = {
  client : Rsmr_net.Node_id.t;
  cmd : string;        (** encoded command *)
  rsp : string;        (** encoded response *)
  invoked : float;
  replied : float;
}

type t

val create : unit -> t
val add : t -> op -> unit
val ops : t -> op list
(** In invocation order. *)

val length : t -> int

val concurrency : t -> int
(** Maximum number of operations whose [invoked, replied] intervals
    overlap — a sanity probe that a "concurrent" test actually was. *)
