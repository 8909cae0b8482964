(* The directory as an application: the same monotone-epoch semantics as
   the in-process oracle (lib/core/directory.ml), expressed as a pure
   state machine so it can be hosted on its own composed RSMR instance —
   the paper's recursion.  Node ids are plain ints here: rsmr_app does
   not depend on rsmr_net, and the composition layer owns the mapping. *)

module Smap = Map.Make (String)
module W = Codec.Writer
module R = Codec.Reader

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
  W.varint w e.epoch;
  W.list w W.varint e.members;
  W.option w W.varint e.leader

let read_entry r =
  let epoch = R.varint r in
  let members = R.list r R.varint in
  let leader = R.option r R.varint in
  { epoch; members; leader }
[@@rsmr.deterministic] [@@rsmr.total]

let write_command w = function
  | Lookup n ->
    W.u8 w 0;
    W.string w n
  | Update { name = n; epoch; members; leader } ->
    W.u8 w 1;
    W.string w n;
    W.varint w epoch;
    W.list w W.varint members;
    W.option w W.varint leader

let read_command r =
  match R.u8 r with
  | 0 -> Lookup (R.string r)
  | 1 ->
    let n = R.string r in
    let epoch = R.varint r in
    let members = R.list r R.varint in
    let leader = R.option r R.varint in
    Update { name = n; epoch; members; leader }
  | _ -> raise Codec.Truncated

let encode_command c = W.to_string write_command c

let decode_command s = read_command (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_response w = function
  | Info e ->
    W.u8 w 0;
    W.option w write_entry e
  | Acked -> W.u8 w 1

let read_response r =
  match R.u8 r with
  | 0 -> Info (R.option r read_entry)
  | 1 -> Acked
  | _ -> raise Codec.Truncated

let encode_response resp = W.to_string write_response resp

let decode_response s = read_response (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_snapshot w t =
  W.varint w (Smap.cardinal t);
  Smap.iter
    (fun n e ->
      W.string w n;
      write_entry w e)
    t

let read_snapshot r =
  let n = R.varint r in
  let rec go acc i =
    if i = n then acc
    else
      let k = R.string r in
      let e = read_entry r in
      go (Smap.add k e acc) (i + 1)
  in
  go Smap.empty 0

let snapshot t = W.to_string write_snapshot t
let restore s = read_snapshot (R.of_string s)

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
