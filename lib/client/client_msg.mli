(** Client-to-service protocol, shared by every replication protocol in the
    repository so client endpoints are reusable. *)

type payload =
  | Cmd of string
      (** An application-encoded command. *)
  | Change_membership of Rsmr_net.Node_id.t list
      (** An administrative request to move the service to this member
          set. *)

type t =
  | Request of { seq : int; low_water : int; payload : payload }
      (** The client identity is the network source.  [low_water] is the
          session-GC watermark: every sequence number below it has been
          acknowledged to this client, so replicas may forget those cached
          responses. *)
  | Request_batch of { low_water : int; reqs : (int * payload) list }
      (** A coalesced window of requests from one client, in sequence
          order.  Semantically identical to sending each [(seq, payload)]
          as its own [Request] with the same [low_water]: every inner
          request keeps its own sequence number and receives its own
          {!Reply} (or {!Redirect}). *)
  | Reply of { seq : int; rsp : string }
  | Redirect of {
      seq : int;
      leader : Rsmr_net.Node_id.t option;
      members : Rsmr_net.Node_id.t list;
      epoch : int;
    }
      (** "Not me — try there": carries the responder's freshest view of
          the configuration.  [leader] is who the responder believes leads
          ([None] during an election); the client drops a [leader] that
          names the responder ({!Endpoint.handle}). *)

val write : Rsmr_app.Codec.Writer.t -> t -> unit
(** The wire-format body of {!encode}; also lets a parent codec embed
    this message via [Writer.nested]. *)

val read : Rsmr_app.Codec.Reader.t -> t
(** Decode in place from a reader (e.g. inside [Reader.framed]). *)

val encode : t -> string
val decode : string -> t
[@@rsmr.deterministic] [@@rsmr.total]
val pp : Format.formatter -> t -> unit
