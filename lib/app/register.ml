module W = Codec.Writer
module R = Codec.Reader

type command = Read | Write of int | Cas of int * int
type response = Value of int | Written | Cas_result of bool
type t = int

let name = "register"
let init () = 0

let apply t = function
  | Read -> (t, Value t)
  | Write v -> (v, Written)
  | Cas (expected, v) ->
    if t = expected then (v, Cas_result true) else (t, Cas_result false)

let write_command w = function
  | Read -> W.u8 w 0
  | Write v ->
    W.u8 w 1;
    W.zigzag w v
  | Cas (e, v) ->
    W.u8 w 2;
    W.zigzag w e;
    W.zigzag w v

let read_command r =
  match R.u8 r with
  | 0 -> Read
  | 1 -> Write (R.zigzag r)
  | 2 ->
    let e = R.zigzag r in
    Cas (e, R.zigzag r)
  | _ -> raise Codec.Truncated

let encode_command c = W.to_string write_command c

let decode_command s = read_command (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_response w = function
  | Value v ->
    W.u8 w 0;
    W.zigzag w v
  | Written -> W.u8 w 1
  | Cas_result b ->
    W.u8 w 2;
    W.bool w b

let read_response r =
  match R.u8 r with
  | 0 -> Value (R.zigzag r)
  | 1 -> Written
  | 2 -> Cas_result (R.bool r)
  | _ -> raise Codec.Truncated

let encode_response resp = W.to_string write_response resp

let decode_response s = read_response (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let snapshot t = W.to_string W.zigzag t
let restore s = R.zigzag (R.of_string s)
let equal_response (a : response) b = a = b

let pp_command ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write v -> Format.fprintf ppf "write(%d)" v
  | Cas (e, v) -> Format.fprintf ppf "cas(%d,%d)" e v

let pp_response ppf = function
  | Value v -> Format.fprintf ppf "value(%d)" v
  | Written -> Format.pp_print_string ppf "written"
  | Cas_result b -> Format.fprintf ppf "cas(%b)" b
