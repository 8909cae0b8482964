(** Composition-layer settings: the reconfiguration strategy, the client
    endpoint's coalescing window, and the model checker's mutation switch.
    Every field here is set to more than one value somewhere (experiments,
    Scope presets, tests); timing constants that only ever take one value
    live next to their one user instead ({!Snapshot.chunk_bytes}, the
    fetch-retry period in {!Service}).

    The reconfiguration policy itself is no longer a pair of booleans:
    it is a {!Rsmr_iface.Reconfig_strategy.t} value, and
    {!Rsmr_core.Service.Make} drives whatever stage choices the value
    declares, reading its [transfer], [handoff] and [residuals] fields. *)

type mutation = No_first_wedge
      (** Deliberately re-breaks the first-wedge-wins dispatch guard:
          commands the block orders {e after} an instance's wedge point
          are applied instead of being diverted to residual handling.
          This reintroduces the epoch-prefix bug the guard fixed, and
          exists only as the model checker's teeth test — Scope must
          find a counterexample within a few dozen steps when it is
          enabled.  Never set it in a real configuration. *)
  | Skip_phase1
      (** Deliberately breaks the ballot-0 rule of the Multi-Paxos block
          ({!Rsmr_smr.Params.skip_phase1}): a member whose election timer
          fires leads at its next ballot on its own log, skipping phase
          1, as only the ballot-0 owner may.  Another teeth test: Scope
          must find two values decided in one slot.  The VR block has no
          phase 1 and ignores it. *)
  | No_session_dedup
      (** Deliberately breaks session deduplication on the decide path: a
          decided duplicate of an already-applied (client, seq) is
          applied again instead of re-replied.  Another teeth test: a
          client retry ordered twice increments the Scope counter twice,
          past the number of commands submitted. *)

val mutations : (string * mutation) list
(** Every mutation under its command-line name. *)

type t = {
  strategy : Rsmr_iface.Reconfig_strategy.t;
      (** Which stage policies drive an epoch change
          ({!Rsmr_iface.Reconfig_strategy}). *)
  client_batch_window : float;
      (** Client endpoint coalescing window (seconds): submissions
          accumulate for this long and ship as one
          {!Rsmr_client.Client_msg.Request_batch}.  [0.] sends each
          request immediately. *)
  client_batch_max : int;
      (** Coalescing buffer capacity: a full buffer flushes without
          waiting for the window. *)
  mutation : mutation option;
      (** [None] in every legitimate run; see {!mutation}. *)
}

val default : t
(** {!Rsmr_iface.Reconfig_strategy.composed} with the historical
    coalescing window (0.5 ms, 16 requests) and no mutation. *)
