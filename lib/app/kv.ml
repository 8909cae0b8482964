module Smap = Map.Make (String)
module W = Codec.Writer
module R = Codec.Reader

type command =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of string * string option * string
  | Append of string * string

type response = Value of string option | Ok | Cas_result of bool
type t = string Smap.t

let name = "kv"
let init () = Smap.empty

let apply t = function
  | Get k -> (t, Value (Smap.find_opt k t))
  | Put (k, v) -> (Smap.add k v t, Ok)
  | Delete k -> (Smap.remove k t, Ok)
  | Cas (k, expected, v) ->
    if Smap.find_opt k t = expected then (Smap.add k v t, Cas_result true)
    else (t, Cas_result false)
  | Append (k, v) ->
    let current = Option.value (Smap.find_opt k t) ~default:"" in
    (Smap.add k (current ^ v) t, Ok)

let write_command w = function
  | Get k ->
    W.u8 w 0;
    W.string w k
  | Put (k, v) ->
    W.u8 w 1;
    W.string w k;
    W.string w v
  | Delete k ->
    W.u8 w 2;
    W.string w k
  | Cas (k, e, v) ->
    W.u8 w 3;
    W.string w k;
    W.option w W.string e;
    W.string w v
  | Append (k, v) ->
    W.u8 w 4;
    W.string w k;
    W.string w v

let read_command r =
  match R.u8 r with
  | 0 -> Get (R.string r)
  | 1 ->
    let k = R.string r in
    Put (k, R.string r)
  | 2 -> Delete (R.string r)
  | 3 ->
    let k = R.string r in
    let e = R.option r R.string in
    Cas (k, e, R.string r)
  | 4 ->
    let k = R.string r in
    Append (k, R.string r)
  | _ -> raise Codec.Truncated

let encode_command c = W.to_string write_command c

let decode_command s = read_command (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_response w = function
  | Value v ->
    W.u8 w 0;
    W.option w W.string v
  | Ok -> W.u8 w 1
  | Cas_result b ->
    W.u8 w 2;
    W.bool w b

let read_response r =
  match R.u8 r with
  | 0 -> Value (R.option r R.string)
  | 1 -> Ok
  | 2 -> Cas_result (R.bool r)
  | _ -> raise Codec.Truncated

let encode_response resp = W.to_string write_response resp

let decode_response s = read_response (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_snapshot w t =
  W.varint w (Smap.cardinal t);
  Smap.iter
    (fun k v ->
      W.string w k;
      W.string w v)
    t

let read_snapshot r =
  let n = R.varint r in
  let rec go acc i =
    if i = n then acc
    else
      let k = R.string r in
      let v = R.string r in
      go (Smap.add k v acc) (i + 1)
  in
  go Smap.empty 0

let snapshot t = W.to_string write_snapshot t
let restore s = read_snapshot (R.of_string s)

let equal_response (a : response) b = a = b

let pp_command ppf = function
  | Get k -> Format.fprintf ppf "get(%s)" k
  | Put (k, v) -> Format.fprintf ppf "put(%s,%s)" k v
  | Delete k -> Format.fprintf ppf "del(%s)" k
  | Cas (k, e, v) ->
    Format.fprintf ppf "cas(%s,%a,%s)" k
      (Format.pp_print_option Format.pp_print_string)
      e v
  | Append (k, v) -> Format.fprintf ppf "append(%s,%s)" k v

let pp_response ppf = function
  | Value v ->
    Format.fprintf ppf "value(%a)"
      (Format.pp_print_option Format.pp_print_string)
      v
  | Ok -> Format.pp_print_string ppf "ok"
  | Cas_result b -> Format.fprintf ppf "cas(%b)" b

let cardinal = Smap.cardinal
let find t k = Smap.find_opt k t
