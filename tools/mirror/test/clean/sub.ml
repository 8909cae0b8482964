(* The zero-copy equivalences: [Writer.nested write_item] must compare
   equal to [Reader.framed r read_item], and a manual count-plus-[let
   rec] decode loop must compare equal to the encoder's
   count-plus-[List.iter]. *)

module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type item = { k : int; v : string }

let write_item w i =
  W.varint w i.k;
  W.string w i.v

let read_item r =
  let k = R.varint r in
  let v = R.string r in
  { k; v }

let write w (t : item list) =
  W.varint w (List.length t);
  List.iter (fun i -> W.nested w write_item i) t

let read r =
  let n = R.varint r in
  let rec go acc i =
    if i = n then List.rev acc else go (R.framed r read_item :: acc) (i + 1)
  in
  go [] 0
