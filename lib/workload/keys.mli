(** Key-popularity distributions for workload generation. *)

type t

val uniform : n:int -> t
(** Keys 0..n-1, equally likely. *)

val zipf : n:int -> theta:float -> t
(** Zipfian with skew [theta] (0 = uniform, ~0.99 = classic YCSB skew).
    Precomputes the CDF; sampling is O(log n). *)

val sample : t -> Rsmr_sim.Rng.t -> int
val key_name : int -> string
(** Canonical printable key for a non-negative index [i] ("key00000042"):
    ["key"] and [i] in decimal, zero-padded to 8 digits, as
    [Printf.sprintf "key%08d" i] writes it.  Allocates only the result.
    Raises [Invalid_argument] on a negative index. *)
