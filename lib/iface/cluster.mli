(** The uniform face every replication protocol in this repository exposes
    to workloads, benchmarks and correctness checkers.

    Protocols differ wildly inside (composed static instances under any
    reconfiguration strategy, native Raft) but all of them can: accept a
    command from a client session, reply asynchronously, change
    membership, and suffer injected faults.  Expressing that as a record
    of closures keeps the experiment drivers protocol-agnostic without
    functor plumbing.  The single-service stacks build this record in
    one place, [Rsmr_core.Front]. *)

type reply_handler =
  client:Rsmr_net.Node_id.t -> seq:int -> rsp:string -> unit

type t = {
  engine : Rsmr_sim.Engine.t;
  add_client : Rsmr_net.Node_id.t -> unit;
      (** Register a client node (attaches its endpoint to the protocol's
          network).  Must be called before [submit] for that client. *)
  submit : client:Rsmr_net.Node_id.t -> seq:int -> cmd:string -> unit;
      (** Fire-and-forget: the protocol applies the encoded command
          at-most-once per (client, seq) and replies via [set_on_reply].
          Retries of the same (client, seq) are safe. *)
  set_on_reply : reply_handler -> unit;
  members : unit -> Rsmr_net.Node_id.t list;
      (** Current (believed) member set. *)
  control : Overlay.control;
      (** The one fault-injection and membership surface ({!Overlay}),
          shared verbatim with {!Rsmr_shard}'s platform: crash, recover,
          partition and heal nodes, and [reconfigure] to a new member
          set.  On a single service [Partition] and [Heal] split and
          repair connectivity on the service's own network; use the
          {!Overlay} wrappers ([Overlay.crash c.control n], ...) at call
          sites. *)
  obs : Rsmr_obs.Registry.t;
      (** The run's Observatory registry.  Network accounting lives in the
          cells labelled [("section", "net")] and protocol-level
          accounting in those labelled [("section", "svc")], read as flat
          tables with [Rsmr_obs.Registry.counters obs "net"] / ["svc"];
          labeled per-node/per-epoch cells and the lifecycle trace bus
          hang off the same handle. *)
}
