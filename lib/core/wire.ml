module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type t =
  | Block of { epoch : int; data : string }
  | Client of Rsmr_client.Client_msg.t
  | Bootstrap of {
      epoch : int;
      members : Rsmr_net.Node_id.t list;
      prev_epoch : int;
      prev_members : Rsmr_net.Node_id.t list;
    }
  | Fetch_state of { epoch : int }
  | State_chunk of { epoch : int; index : int; total : int; data : string }
  | Retire of { epoch : int }
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

(* The one wire-format body: [encode] runs it against a buffer sink,
   [size] against a counting sink, so they cannot drift. *)
let write w t =
  match t with
  | Block { epoch; data } ->
    W.u8 w 0;
    W.varint w epoch;
    W.string w data
  | Client m ->
    W.u8 w 1;
    W.nested w Rsmr_client.Client_msg.write m
  | Bootstrap { epoch; members; prev_epoch; prev_members } ->
    W.u8 w 2;
    W.varint w epoch;
    W.list w W.zigzag members;
    W.varint w prev_epoch;
    W.list w W.zigzag prev_members
  | Fetch_state { epoch } ->
    W.u8 w 3;
    W.varint w epoch
  | State_chunk { epoch; index; total; data } ->
    W.u8 w 4;
    W.varint w epoch;
    W.varint w index;
    W.varint w total;
    W.string w data
  | Retire { epoch } ->
    W.u8 w 5;
    W.varint w epoch
  | Dir_update { epoch; members; leader } ->
    W.u8 w 6;
    W.varint w epoch;
    W.list w W.zigzag members;
    W.option w W.zigzag leader
  | Dir_lookup -> W.u8 w 7
  | Dir_info { epoch; members; leader } ->
    W.u8 w 8;
    W.varint w epoch;
    W.list w W.zigzag members;
    W.option w W.zigzag leader

let read r =
  match R.u8 r with
  | 0 ->
    let epoch = R.varint r in
    Block { epoch; data = R.string r }
  | 1 -> Client (R.framed r Rsmr_client.Client_msg.read)
  | 2 ->
    let epoch = R.varint r in
    let members = R.list r R.zigzag in
    let prev_epoch = R.varint r in
    let prev_members = R.list r R.zigzag in
    Bootstrap { epoch; members; prev_epoch; prev_members }
  | 3 -> Fetch_state { epoch = R.varint r }
  | 4 ->
    let epoch = R.varint r in
    let index = R.varint r in
    let total = R.varint r in
    State_chunk { epoch; index; total; data = R.string r }
  | 5 -> Retire { epoch = R.varint r }
  | 6 ->
    let epoch = R.varint r in
    let members = R.list r R.zigzag in
    Dir_update { epoch; members; leader = R.option r R.zigzag }
  | 7 -> Dir_lookup
  | 8 ->
    let epoch = R.varint r in
    let members = R.list r R.zigzag in
    Dir_info { epoch; members; leader = R.option r R.zigzag }
  | _ -> raise Rsmr_app.Codec.Truncated

let encode t = W.to_string write t

let decode s = read (R.of_string s)

let size t = W.size write t

let tag = function
  | Block _ -> "block"
  | Client _ -> "client"
  | Bootstrap _ -> "bootstrap"
  | Fetch_state _ -> "fetch_state"
  | State_chunk _ -> "state_chunk"
  | Retire _ -> "retire"
  | Dir_update _ -> "dir_update"
  | Dir_lookup -> "dir_lookup"
  | Dir_info _ -> "dir_info"

let bulk = function
  | State_chunk _ -> true
  | Block _ | Client _ | Bootstrap _ | Fetch_state _ | Retire _ | Dir_update _
  | Dir_lookup | Dir_info _ ->
    false

let pp_members ppf members =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    Rsmr_net.Node_id.pp ppf members

let pp ppf = function
  | Block { epoch; data } ->
    Format.fprintf ppf "block#%d(%d bytes)" epoch (String.length data)
  | Client m -> Format.fprintf ppf "client(%a)" Rsmr_client.Client_msg.pp m
  | Bootstrap { epoch; members; prev_epoch; _ } ->
    Format.fprintf ppf "bootstrap(#%d {%a} prev=#%d)" epoch pp_members members
      prev_epoch
  | Fetch_state { epoch } -> Format.fprintf ppf "fetch_state(#%d)" epoch
  | State_chunk { epoch; index; total; data } ->
    Format.fprintf ppf "state_chunk(#%d %d/%d,%d bytes)" epoch (index + 1)
      total (String.length data)
  | Retire { epoch } -> Format.fprintf ppf "retire(#%d)" epoch
  | Dir_update { epoch; members; _ } ->
    Format.fprintf ppf "dir_update(#%d {%a})" epoch pp_members members
  | Dir_lookup -> Format.pp_print_string ppf "dir_lookup"
  | Dir_info { epoch; members; _ } ->
    Format.fprintf ppf "dir_info(#%d {%a})" epoch pp_members members
