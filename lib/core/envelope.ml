module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type 'cmd t =
  | App of {
      client : Rsmr_net.Node_id.t;
      seq : int;
      low_water : int;
      cmd : 'cmd;
    }
  | Reconfig of {
      client : Rsmr_net.Node_id.t;
      seq : int;
      members : Rsmr_net.Node_id.t list;
    }
  | Drain

(* Single wire-format body shared by [encode] (buffer sink) and [size]
   (counting sink). *)
let write w t =
  match t with
  | App { client; seq; low_water; cmd } ->
    W.u8 w 0;
    W.zigzag w client;
    W.varint w seq;
    W.varint w low_water;
    W.string w cmd
  | Reconfig { client; seq; members } ->
    W.u8 w 1;
    W.zigzag w client;
    W.varint w seq;
    W.list w W.zigzag members
  | Drain -> W.u8 w 2

let read read_command r =
  match R.u8 r with
  | 0 ->
    let client = R.zigzag r in
    let seq = R.varint r in
    let low_water = R.varint r in
    App { client; seq; low_water; cmd = R.framed r read_command }
  | 1 ->
    let client = R.zigzag r in
    let seq = R.varint r in
    Reconfig { client; seq; members = R.list r R.zigzag }
  | 2 -> Drain
  | _ -> raise Rsmr_app.Codec.Truncated

let encode t = W.to_string write t

let decode read_command s = read read_command (R.of_string s)

let size t = W.size write t
