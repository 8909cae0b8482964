(** One-way link latency models. *)

type t =
  | Constant of float
  | Uniform of float * float      (** [lo, hi) seconds *)
  | Exponential_shifted of float * float
      (** base + Exp(mean): a floor plus a heavy-ish tail, the usual
          datacenter RPC shape *)

val sample : t -> Rsmr_sim.Rng.t -> float
val lan : t
(** 0.1 ms floor + 0.15 ms exponential tail — same-rack default. *)

val wan : t
(** 20 ms floor + 5 ms exponential tail. *)
