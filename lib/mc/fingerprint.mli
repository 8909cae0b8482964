(** State fingerprints: 64-bit FNV-1a digests of canonical encodings.

    A fingerprint identifies a visited state in the explorer's dedup
    set.  It is always computed from canonical bytes (block/service
    [canonical_state] encodings), never from OCaml values — rsmr-lint's
    [state-hash] rule bans [Hashtbl.hash] on protocol state precisely
    because structural hashing truncates and depends on representation.

    With 64-bit digests over the |S| ≲ 10^6 states a bounded scope
    visits, the birthday collision probability is below 10^-7 — and a
    collision only merges two states, it cannot fabricate a violation
    (counterexamples are replayed concretely before being reported). *)

type t = int64

val of_string : string -> t
(** Digest of one canonical encoding. *)

val of_kv : (string * string) list -> t
[@@rsmr.deterministic]
(** Digest of labeled parts, {e insertion-order independent}: bindings
    are sorted by key before hashing, and keys/values are length-framed
    so no two distinct binding sets alias.  This is how composite
    fingerprints (service state + timer counts + budget cursors) are
    assembled from independently-gathered pieces. *)

val to_hex : t -> string
val equal : t -> t -> bool
