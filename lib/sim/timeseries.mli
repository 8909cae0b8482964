(** Append-only (time, value) series, with bucketed aggregation helpers used
    by the figure printers (e.g. throughput-per-interval, latency
    timelines).

    {b Allocation.}  Samples live in two unboxed float arrays that double
    when full, so {!add} within capacity allocates nothing (a caller may
    still box the floats it passes).  The readers walk the samples
    newest first, as a list of them once did, so sums come out bit for
    bit the same. *)

type t

val create : unit -> t
val add : t -> time:float -> float -> unit
val points : t -> (float * float) list
(** Chronological samples. *)

val bucketize : t -> width:float -> (float * int * float) list
(** [bucketize t ~width] groups samples into intervals of [width] seconds,
    returning [(bucket_start, count, mean_value)] for each non-empty
    bucket, chronologically. *)

val rate_per_bucket : t -> width:float -> (float * float) list
(** Events per second in each bucket (using sample counts, ignoring
    values). *)

val max_in_window : t -> lo:float -> hi:float -> float option
(** Largest value with [lo <= time <= hi]. *)
