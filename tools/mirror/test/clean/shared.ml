(* Shared constant encodings: a reply without a payload is encoded once,
   at module initialisation, by the same writer the other replies use.
   A match case that returns such a constant returns that writer's
   bytes, so every case lifts to [call(write_reply)] and the dispatch
   collapses to the one body [decode_reply] mirrors. *)

module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type reply = Done | Found of string

let write_reply w = function
  | Done -> W.u8 w 0
  | Found v ->
    W.u8 w 1;
    W.string w v

let read_reply r =
  match R.u8 r with
  | 0 -> Done
  | 1 -> Found (R.string r)
  | _ -> raise Rsmr_app.Codec.Truncated

let done_bytes = W.to_string write_reply Done

let encode_reply = function
  | Done -> done_bytes
  | Found _ as reply -> W.to_string write_reply reply

let decode_reply s = read_reply (R.of_string s)
