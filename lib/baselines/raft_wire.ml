module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type t =
  | Rpc of Raft_msg.t
  | Client of Rsmr_client.Client_msg.t
  | Dir_update of {
      epoch : int;
      members : Rsmr_net.Node_id.t list;
      leader : Rsmr_net.Node_id.t option;
    }
  | Dir_lookup
  | Dir_info of {
      epoch : int;
      members : Rsmr_net.Node_id.t list;
      leader : Rsmr_net.Node_id.t option;
    }

(* Single wire-format body shared by [encode] (buffer sink) and [size]
   (counting sink).  Sub-messages are written in place via
   [Writer.nested] rather than encoded to an intermediate string. *)
let write w t =
  match t with
  | Rpc m ->
    W.u8 w 0;
    W.nested w Raft_msg.write m
  | Client m ->
    W.u8 w 1;
    W.nested w Rsmr_client.Client_msg.write m
  | Dir_update { epoch; members; leader } ->
    W.u8 w 2;
    W.varint w epoch;
    W.list w W.zigzag members;
    W.option w W.zigzag leader
  | Dir_lookup -> W.u8 w 3
  | Dir_info { epoch; members; leader } ->
    W.u8 w 4;
    W.varint w epoch;
    W.list w W.zigzag members;
    W.option w W.zigzag leader

let read r =
  match R.u8 r with
  | 0 -> Rpc (R.framed r Raft_msg.read)
  | 1 -> Client (R.framed r Rsmr_client.Client_msg.read)
  | 2 ->
    let epoch = R.varint r in
    let members = R.list r R.zigzag in
    Dir_update { epoch; members; leader = R.option r R.zigzag }
  | 3 -> Dir_lookup
  | 4 ->
    let epoch = R.varint r in
    let members = R.list r R.zigzag in
    Dir_info { epoch; members; leader = R.option r R.zigzag }
  | _ -> raise Rsmr_app.Codec.Truncated

let encode t = W.to_string write t

let decode s = read (R.of_string s)

let size t = W.size write t

let tag = function
  | Rpc m -> "raft." ^ Raft_msg.tag m
  | Client _ -> "client"
  | Dir_update _ -> "dir_update"
  | Dir_lookup -> "dir_lookup"
  | Dir_info _ -> "dir_info"
