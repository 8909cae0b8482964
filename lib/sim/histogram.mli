(** Log-bucketed latency histogram (HdrHistogram-style).

    Values are recorded in seconds; buckets are geometric with ~2% relative
    width, so percentile queries are accurate to a few percent across nine
    orders of magnitude — plenty for latency distributions. *)

type t

val create : unit -> t
val record : t -> float -> unit
val count : t -> int
val mean : t -> float
val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in (0, 100].  Returns 0. when empty;
    otherwise the result lies in [[min_value t, max_value t]]. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line "n=.. mean=.. p50=.. p99=.. max=.." rendering in ms. *)
