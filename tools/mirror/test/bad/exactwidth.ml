(* Width bug behind [Writer.to_string]: the lambda it runs zigzags the
   offset, but the decoder reads a plain varint. *)

module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

let encode_offset (d : int) = W.to_string (fun w d -> W.zigzag w d) d
let decode_offset s = R.varint (R.of_string s)
