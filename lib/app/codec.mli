(** Hand-rolled binary codec.

    All wire messages, command envelopes and snapshots go through this
    module, so byte counts reported by the benchmarks reflect a realistic
    serialization rather than [Marshal] internals.  Integers use LEB128
    varints; strings are length-prefixed.

    The writer is abstract over an output {e sink}: a buffer sink that
    accumulates real bytes, or a counting sink that only tallies how many
    bytes {e would} be written.  Codecs define their format once as a
    [write : Writer.t -> t -> unit] body; [encode] runs it against a
    buffer and [size] against a counter, so sizing is a single
    zero-allocation pass that cannot drift from the encoding. *)

exception Truncated
(** Raised by readers on malformed or short input. *)

module Writer : sig
  type t

  val create : ?size_hint:int -> unit -> t
  (** A writer backed by a real byte buffer; drain with {!contents}. *)

  val counter : unit -> t
  (** A counting sink: accepts the same write calls but only accumulates
      {!written}, allocating nothing and copying no payload bytes. *)

  val written : t -> int
  (** Bytes written (or counted) so far.  Valid for both sinks. *)

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
      directly into [w]'s sink: the body is measured with a counting pass
      for the prefix, then written in place.  Replaces the
      [string w (Sub.encode v)] idiom without the intermediate string. *)

  val contents : t -> string
  (** The accumulated bytes.  Raises [Invalid_argument] on a counting
      sink, which has none. *)

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
  val bool : t -> bool
  val float : t -> float
  val string : t -> string

  val view : t -> t
  (** Zero-copy counterpart of {!string}: reads a length prefix and
      returns a sub-reader over that window of the {e same} backing
      string (no [String.sub] copy), advancing the parent past it. *)

  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val at_end : t -> bool
end
