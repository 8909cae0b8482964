(** The eight invariant oracles, judged over a completed {!Runner.report}
    of either stack; the per-chain ones judge each epoch chain (a single
    service's, or the platform's directory and shards) on its own.

    - {b linearizability}: the client-observed history admits a legal
      total order (Wing–Gong over {!Mixed}, or Kv on the platform, one
      object's sub-history at a time, each search budgeted — a blown
      budget is [Inconclusive], never a verdict).
    - {b exactly-once}: no client saw a second reply, and on a single
      service the replicated counter equals the sum of acknowledged
      increments — any retry or residual resubmission that
      double-applied, or any acknowledged-then-lost command, breaks the
      arithmetic.
    - {b epoch-prefix} (per chain): no composed-service instance applied
      a command past its wedge index, and every replica that wedged an
      epoch agrees on the wedge index ([Skip] under Raft, which has no
      wedge).
    - {b residual conservation}: every submitted command eventually
      completed (a residual that was neither resubmitted nor recoverable
      by client retry shows up as a hung client), and the service never
      claims more resubmissions than residuals.
    - {b convergence} (per chain): after quiescence all advertised
      members expose byte-identical application state.
    - {b redirect bound}: the services' [redirects] counter is no
      {!Rsmr_client.Endpoint.redirect_storm}.
    - {b dir-epoch-monotone} and {b rebalance-progress} ([Skip] on a
      single service): no directory lookup reply went back in epoch,
      and some rebalance the platform started completed. *)

type verdict =
  | Pass
  | Fail of string
  | Inconclusive of string  (** budget or settledness prevented a verdict *)
  | Skip of string  (** oracle does not apply to this protocol *)

type outcome = {
  lin : verdict;
  exactly_once : verdict;
  epoch_prefix : verdict;
  residual : verdict;
  convergence : verdict;
  redirects : verdict;
  dir_epoch : verdict;
  rebalance : verdict;
}

val default_lin_budget : int

val check : ?lin_budget:int -> Runner.report -> outcome

val failures : outcome -> (string * string) list
val inconclusives : outcome -> (string * string) list

val ok : outcome -> bool
(** No [Fail] verdict ([Inconclusive] and [Skip] are tolerated). *)

val pp : Format.formatter -> outcome -> unit
