(* Mutation fixture: the shared encoding of [Done] is built with the
   wrong writer, so one case of [encode_reply] writes a zigzag where
   [decode_reply]'s reader expects the tag dispatch.  The cases no longer
   agree, the dispatch stays a switch, and it cannot mirror the decoder's
   single call. *)

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

let done_bytes = W.to_string W.zigzag 0 [@@rsmr.codec.oneway]

let encode_reply = function
  | Done -> done_bytes
  | Found _ as reply -> W.to_string write_reply reply

let decode_reply s = read_reply (R.of_string s)
