module W = Codec.Writer
module R = Codec.Reader

type command = Incr of int | Read
type response = Current of int
type t = int

let name = "counter"
let init () = 0

let apply t = function
  | Incr n -> (t + n, Current (t + n))
  | Read -> (t, Current t)

let write_command w = function
  | Incr n ->
    W.u8 w 0;
    W.zigzag w n
  | Read -> W.u8 w 1

let read_command r =
  match R.u8 r with
  | 0 -> Incr (R.zigzag r)
  | 1 -> Read
  | _ -> raise Codec.Truncated

let encode_command c = W.to_string write_command c

let decode_command s = read_command (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let encode_response (Current n) = W.to_string W.zigzag n

let decode_response s = Current (R.zigzag (R.of_string s))
[@@rsmr.deterministic] [@@rsmr.total]

let snapshot t = encode_response (Current t)
let restore s = match decode_response s with Current n -> n
let equal_response (Current a) (Current b) = a = b
let pp_command ppf = function
  | Incr n -> Format.fprintf ppf "incr(%d)" n
  | Read -> Format.pp_print_string ppf "read"

let pp_response ppf (Current n) = Format.fprintf ppf "current(%d)" n
let value t = t
