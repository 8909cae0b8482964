(** Hand-rolled binary codec.

    All wire messages, command envelopes and snapshots go through this
    module, so byte counts reported by the benchmarks reflect a realistic
    serialization rather than [Marshal] internals.  Integers use LEB128
    varints; strings are length-prefixed.

    The writer is abstract over an output {e sink}: a byte buffer with an
    explicit position, or a counting sink that only tallies how many
    bytes {e would} be written.  Codecs define their format once as a
    [write : Writer.t -> t -> unit] body; [encode] is
    [Writer.to_string write] and [size] is [Writer.size write], so the
    two cannot drift.

    {b Allocation.}  No primitive allocates: [u8], [varint], [zigzag],
    [bool], [float], [string], [option], [list] and [nested] write or
    count without touching the minor heap (an element codec passed to
    [option] or [list] allocates only what it allocates itself; a
    {!Writer.create} writer doubles its buffer as it fills).  So
    [Writer.size] of an allocation-free body allocates nothing, and
    [Writer.to_string] of one allocates its result alone.  On the reader
    side [u8], [varint], [zigzag] and [bool] allocate nothing; [float]
    allocates its boxed result, [string] the copied string, [option] and
    [list] their result, and [framed] nothing of its own. *)

exception Truncated
(** Raised by readers on malformed or short input. *)

module Writer : sig
  type t

  val create : ?size_hint:int -> unit -> t
  (** A growable writer for an encoding built up incrementally, whose
      body should not run twice (fingerprints); drain with {!contents}.
      A one-shot encoder uses {!to_string} instead. *)

  val to_string : (t -> 'a -> unit) -> 'a -> string
  (** [to_string write v] is the encoding of [v]: a counting pass sizes
      it, then [write] runs once into a buffer of exactly that size,
      which becomes the result without a copy.  Raises
      [Invalid_argument] if the two passes disagree.

      {b Allocation.}  Both passes write through shared module-level
      sinks, so [to_string] allocates its result and whatever [write]
      allocates itself: no writer record.  [write] may itself call
      [to_string] (an opaque payload encoded inside a body); each pass
      saves and restores the pass it interrupts. *)

  val size : (t -> 'a -> unit) -> 'a -> int
  (** [size write v] is [String.length (to_string write v)], computed by
      the counting pass alone. *)

  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  (** Non-negative varint. *)

  val zigzag : t -> int -> unit
  (** Signed varint. *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val string : t -> string -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit

  val nested : t -> (t -> 'a -> unit) -> 'a -> unit
  (** [nested w write_sub v] emits [v] as a length-prefixed sub-message
      directly into [w]'s sink, byte for byte [string w (to_string
      write_sub v)] but in one pass and without the intermediate string:
      the body is written after a one-byte prefix slot and moved up when
      its length needs a wider prefix. *)

  val contents : t -> string
  (** A copy of the bytes written to a {!create} writer. *)

end

module Reader : sig
  type t

  val of_string : string -> t
  val u8 : t -> int

  val varint : t -> int
  (** Non-negative varint.  Raises {!Truncated} on an encoding the
      writer cannot produce: more than nine bytes, or a value past
      [max_int]. *)

  val zigzag : t -> int
  (** Signed varint.  Raises {!Truncated} past nine bytes, which hold
      any value the writer produces. *)

  val bool : t -> bool
  val float : t -> float
  val string : t -> string

  val framed : t -> (t -> 'a) -> 'a
  (** The reading counterpart of {!Writer.nested} and of a {!string}
      holding an encoding: [framed r f] reads a length prefix and runs
      [f] on [r] itself, confined to that frame of the same backing
      string (no copy, no sub-reader), then leaves [r] past the frame
      whatever [f] consumed.  If [f] raises, [r] is left confined. *)

  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val at_end : t -> bool
end
