(* Exact-size encoders: [Writer.to_string f v] runs [f] on a sink of its
   own and returns the bytes, so it lifts as the body of [f], with no
   frame and no length prefix.  Three spellings: a named writer (the
   application idiom: [write_command]/[read_command] pair, and the
   [encode_command]/[decode_command] wrappers delegate to them), a lambda,
   and a bare primitive. *)

module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type command = Get of string | Put of string * string

let write_command w = function
  | Get k ->
    W.u8 w 0;
    W.string w k
  | Put (k, v) ->
    W.u8 w 1;
    W.string w k;
    W.string w v

let read_command r =
  match R.u8 r with
  | 0 -> Get (R.string r)
  | 1 ->
    let k = R.string r in
    Put (k, R.string r)
  | _ -> raise Rsmr_app.Codec.Truncated

let encode_command c = W.to_string write_command c
let decode_command s = read_command (R.of_string s)

type response = Value of string option | Done

let encode_response resp =
  W.to_string
    (fun w -> function
      | Value v ->
        W.u8 w 0;
        W.option w W.string v
      | Done -> W.u8 w 1)
    resp

let decode_response s =
  let r = R.of_string s in
  match R.u8 r with
  | 0 -> Value (R.option r R.string)
  | 1 -> Done
  | _ -> raise Rsmr_app.Codec.Truncated

let snapshot (t : int) = W.to_string W.zigzag t
let restore s = R.zigzag (R.of_string s)
