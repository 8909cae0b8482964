(* The directory as an application: the same monotone-epoch semantics as
   the in-process oracle (lib/core/directory.ml), expressed as a pure
   state machine so it can be hosted on its own composed RSMR instance —
   the paper's recursion.  Node ids are plain ints here: rsmr_app does
   not depend on rsmr_net, and the composition layer owns the mapping. *)

module Smap = Map.Make (String)

type entry = { epoch : int; members : int list; leader : int option }

type command =
  | Lookup of string
  | Update of { name : string; epoch : int; members : int list;
                leader : int option }

type response = Info of entry option | Acked
type t = entry Smap.t

let name = "dir"
let init () = Smap.empty

(* Exactly Directory.update: strictly newer epochs replace the entry;
   a same-epoch update may refresh the leader hint; stale epochs are
   ignored (idempotence under replay). *)
let merge prev ~epoch ~members ~leader =
  match prev with
  | None -> Some { epoch; members; leader }
  | Some e when epoch > e.epoch -> Some { epoch; members; leader }
  | Some e when epoch = e.epoch ->
    (match leader with Some _ -> Some { e with leader } | None -> Some e)
  | Some _ -> prev

let apply t = function
  | Lookup n -> (t, Info (Smap.find_opt n t))
  | Update { name = n; epoch; members; leader } ->
    let merged = merge (Smap.find_opt n t) ~epoch ~members ~leader in
    let t =
      match merged with None -> t | Some e -> Smap.add n e t
    in
    (t, Acked)

let write_entry w (e : entry) =
  Codec.Writer.varint w e.epoch;
  Codec.Writer.list w Codec.Writer.varint e.members;
  Codec.Writer.option w Codec.Writer.varint e.leader

let read_entry r =
  let epoch = Codec.Reader.varint r in
  let members = Codec.Reader.list r Codec.Reader.varint in
  let leader = Codec.Reader.option r Codec.Reader.varint in
  { epoch; members; leader }
[@@rsmr.deterministic] [@@rsmr.total]

let encode_command c =
  let w = Codec.Writer.create () in
  (match c with
   | Lookup n ->
     Codec.Writer.u8 w 0;
     Codec.Writer.string w n
   | Update { name = n; epoch; members; leader } ->
     Codec.Writer.u8 w 1;
     Codec.Writer.string w n;
     Codec.Writer.varint w epoch;
     Codec.Writer.list w Codec.Writer.varint members;
     Codec.Writer.option w Codec.Writer.varint leader);
  Codec.Writer.contents w

let decode_command s =
  let r = Codec.Reader.of_string s in
  match Codec.Reader.u8 r with
  | 0 -> Lookup (Codec.Reader.string r)
  | 1 ->
    let n = Codec.Reader.string r in
    let epoch = Codec.Reader.varint r in
    let members = Codec.Reader.list r Codec.Reader.varint in
    let leader = Codec.Reader.option r Codec.Reader.varint in
    Update { name = n; epoch; members; leader }
  | _ -> raise Codec.Truncated
[@@rsmr.deterministic] [@@rsmr.total]

let encode_response resp =
  let w = Codec.Writer.create () in
  (match resp with
   | Info e ->
     Codec.Writer.u8 w 0;
     Codec.Writer.option w write_entry e
   | Acked -> Codec.Writer.u8 w 1);
  Codec.Writer.contents w

let decode_response s =
  let r = Codec.Reader.of_string s in
  match Codec.Reader.u8 r with
  | 0 -> Info (Codec.Reader.option r read_entry)
  | 1 -> Acked
  | _ -> raise Codec.Truncated
[@@rsmr.deterministic] [@@rsmr.total]

let snapshot t =
  let w = Codec.Writer.create ~size_hint:1024 () in
  Codec.Writer.varint w (Smap.cardinal t);
  Smap.iter
    (fun n e ->
      Codec.Writer.string w n;
      write_entry w e)
    t;
  Codec.Writer.contents w

let restore s =
  let r = Codec.Reader.of_string s in
  let n = Codec.Reader.varint r in
  let rec go acc i =
    if i = n then acc
    else
      let k = Codec.Reader.string r in
      let e = read_entry r in
      go (Smap.add k e acc) (i + 1)
  in
  go Smap.empty 0

let equal_response (a : response) b = a = b

let pp_ids ppf ids =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    ids

let pp_entry ppf (e : entry) =
  Format.fprintf ppf "e%d:%a:%a" e.epoch pp_ids e.members
    (Format.pp_print_option Format.pp_print_int)
    e.leader

let pp_command ppf = function
  | Lookup n -> Format.fprintf ppf "lookup(%s)" n
  | Update { name = n; epoch; members; leader } ->
    Format.fprintf ppf "update(%s,%a)" n pp_entry { epoch; members; leader }

let pp_response ppf = function
  | Info e ->
    Format.fprintf ppf "info(%a)" (Format.pp_print_option pp_entry) e
  | Acked -> Format.pp_print_string ppf "acked"

let find t n = Smap.find_opt n t
