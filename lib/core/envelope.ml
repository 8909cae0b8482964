module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type t =
  | App of {
      client : Rsmr_net.Node_id.t;
      seq : int;
      low_water : int;
      cmd : string;
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

let read r =
  match R.u8 r with
  | 0 ->
    let client = R.zigzag r in
    let seq = R.varint r in
    let low_water = R.varint r in
    App { client; seq; low_water; cmd = R.string r }
  | 1 ->
    let client = R.zigzag r in
    let seq = R.varint r in
    Reconfig { client; seq; members = R.list r R.zigzag }
  | 2 -> Drain
  | _ -> raise Rsmr_app.Codec.Truncated

let encode t = W.to_string write t

let decode s = read (R.of_string s)

let size t = W.size write t

let pp ppf = function
  | App { client; seq; cmd; _ } ->
    Format.fprintf ppf "app(%a,seq=%d,%d bytes)" Rsmr_net.Node_id.pp client seq
      (String.length cmd)
  | Reconfig { client; seq; members } ->
    Format.fprintf ppf "reconfig(%a,seq=%d,{%a})" Rsmr_net.Node_id.pp client
      seq
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Rsmr_net.Node_id.pp)
      members
  | Drain -> Format.pp_print_string ppf "drain"
