(** Symbolic byte shapes.

    A shape is what a codec body does to the wire, abstracted from the
    values it moves: a sequence of width-tagged primitives, framed
    (length-prefixed) blobs, combinators, repetition, tag dispatch, and
    delegation to other codec bodies.  [Lift] produces one shape list
    per write/read body; [Check] compares paired shapes up to the
    zero-copy equivalences (string↔framed, nested↔framed). *)

type prim = U8 | Varint | Zigzag | Bool | Float

type t =
  | Prim of prim
  | Const of int
      (** a literal byte ([Writer.u8 w 3]) — tag bytes surface as these *)
  | Framed of string option
      (** length-prefixed blob: [Writer.string]/[Reader.string], a bare
          [Reader.framed] with an unnamed reader, or — with the
          sub-codec's key — [Writer.nested f] / [Reader.framed r f] *)
  | Opt of t list  (** [option] combinator: presence bool + maybe body *)
  | Rep of t list  (** [list] combinator: varint count + repeated body *)
  | Loop of t list
      (** repetition whose count is accounted for elsewhere: manual
          iteration ([Map.iter], [let rec] decode loops, for/while) *)
  | Call of string  (** same-sink delegation to another codec body *)
  | Branch of t list list  (** data-dependent alternatives (if/match) *)
  | Switch of switch
  | Opaque of string
      (** unliftable constructs; compares equal to anything (soundness
          limit, surfaced separately as [mirror-opaque]) *)

and switch = {
  sw_tag : prim option;
      (** reader-style dispatch: the primitive consumed by the
          scrutinee; [None] for writer-style constructor dispatch *)
  sw_cases : case list;
  sw_default : default;
}

and case = {
  c_tag : int option;
      (** reader: the dispatched constant; writer: extracted from the
          case's leading [Const] by {!Check} *)
  c_label : string;  (** constructor name, or the printed tag *)
  c_items : t list;
}

and default = No_default | Truncates | Default_other of string

(** A raw diagnostic produced during lifting or checking, before
    severity/exemption filtering. *)
type finding = {
  f_rule : string;
  f_loc : Location.t;
  f_alt_file : string option;
      (** second file involved (the other half of a pair) — exempting
          either file silences the finding *)
  f_msg : string;
  f_chain : string list;
}

val finding :
  ?alt_file:string -> rule:string -> Location.t -> string ->
  ?chain:string list -> unit -> finding

val prim_name : prim -> string

val to_string : t -> string
(** Compact rendering of one item: ["u8 3"], ["list(zigzag)"],
    ["bytes<Client_msg.write>"], ["switch{0,1,2}"]. *)

val render : t list -> string
(** Items joined with [" · "]; ["ε"] when empty. *)

val normalize : t list -> t list
(** Canonical form for comparison: [Rep sub] becomes
    [Prim Varint; Loop sub] so combinator-style and manual
    count-plus-loop codecs compare equal; single-alternative and
    all-equal [Branch]es collapse; a [Loop] whose body is a two-way
    branch with one empty arm (the recursion's termination test) keeps
    only the live arm. *)
