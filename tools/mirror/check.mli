(** Compare the normalized shapes of a write/read pair.

    Findings go to [note]:
    - [mirror-shape]: per-position divergence between what the encoder
      writes and what the decoder reads, with the shortest witness chain
      leading to the first differing item at each nesting level;
    - [mirror-tag]: encoder/decoder tag-set disagreement (duplicate
      tags, tags written but never dispatched, tags dispatched but never
      written, a dispatch case that writes no leading tag byte);
    - [mirror-default]: a decoder tag dispatch whose wildcard branch
      does not raise [Codec.Truncated] (or is missing entirely).

    [pairs_ok a b] answers whether keys [a] and [b] are two halves of a
    known codec pair, so [Writer.nested w Sub.write] compares equal to
    [Reader.framed r Sub.read] and delegating [encode]/[decode] wrappers
    compare equal. *)

val check_pair :
  note:(Shape.finding -> unit) ->
  pairs_ok:(string -> string -> bool) ->
  writer:Lift.body ->
  reader:Lift.body ->
  unit

val check_reader_defaults : note:(Shape.finding -> unit) -> Lift.body -> unit
(** [mirror-default] scan over one reader body, independent of pairing,
    so even an unpaired decoder's tag dispatch must end in
    [raise Codec.Truncated]. *)
