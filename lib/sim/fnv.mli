(** FNV-1a 64-bit content hashing — the sanctioned digest for protocol
    state.

    Fingerprinting and applied-prefix digests must hash {e canonical
    encodings} (bytes produced by the codec layer), never OCaml values
    via [Hashtbl.hash]: the structural hash truncates deep/large values,
    conflates distinct closures, and its result depends on the heap
    representation.  rsmr-lint's [state-hash] rule bans structural
    hashing in protocol scope; this module is what to use instead. *)

val empty : int64
(** The offset basis — the digest of zero bytes, and the seed every
    chain starts from. *)

val hash : string -> int64
(** [hash s] is the FNV-1a digest of the bytes of [s]. *)

val combine : int64 -> string -> int64
(** [combine h s] continues an FNV-1a chain: feeds the bytes of [s]
    into running digest [h]. *)

val combine_int : int64 -> int -> int64
(** [combine_int h n] = [combine h (string_of_int n)], computed without
    building the string. *)

val combine_framed : int64 -> string -> int64
(** Like {!combine} but folds the length of [s] in first, so adjacent
    parts cannot alias across their boundary ("ab"+"c" vs "a"+"bc").
    Use this when chaining variable-length fields. *)

val combine_int_framed : int64 -> int -> string -> int64
(** [combine_int_framed h n s] = [combine_framed (combine_int h n) s]:
    one step of an indexed chain (an applied-prefix digest folding in
    each entry's index and bytes), allocating only the boxed result. *)

val to_hex : int64 -> string
(** 16-digit lowercase hex, zero-padded — the external fingerprint
    form used in frontier files and counterexample traces. *)
