(* A symmetric tagged codec exercising every combinator the lift
   models: constant tags, list/option combinators, and the pure
   delegation wrappers ([encode]/[decode]/[size]) that ride on
   [write]/[read]. *)

module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type t = Ping | Payload of string list | Gap of int option

let write w = function
  | Ping -> W.u8 w 0
  | Payload ss ->
    W.u8 w 1;
    W.list w W.string ss
  | Gap d ->
    W.u8 w 2;
    W.option w W.zigzag d

let read r =
  match R.u8 r with
  | 0 -> Ping
  | 1 -> Payload (R.list r R.string)
  | 2 -> Gap (R.option r R.zigzag)
  | _ -> raise Rsmr_app.Codec.Truncated

let encode t = W.to_string write t

let decode s = read (R.of_string s)

let size t = W.size write t
