module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type payload = Cmd of string | Change_membership of Rsmr_net.Node_id.t list

type t =
  | Request of { seq : int; low_water : int; payload : payload }
  | Request_batch of { low_water : int; reqs : (int * payload) list }
  | Reply of { seq : int; rsp : string }
  | Redirect of {
      seq : int;
      leader : Rsmr_net.Node_id.t option;
      members : Rsmr_net.Node_id.t list;
      epoch : int;
    }

(* Payload sub-codec shared by [Request] and [Request_batch]. *)
let write_payload w payload =
  match payload with
  | Cmd cmd ->
    W.u8 w 0;
    W.string w cmd
  | Change_membership members ->
    W.u8 w 1;
    W.list w W.zigzag members

let read_payload r =
  match R.u8 r with
  | 0 -> Cmd (R.string r)
  | 1 -> Change_membership (R.list r R.zigzag)
  | _ -> raise Rsmr_app.Codec.Truncated

let write_req w (seq, payload) =
  W.varint w seq;
  write_payload w payload

let read_req r =
  let seq = R.varint r in
  let payload = read_payload r in
  (seq, payload)

(* Single wire-format body shared by [encode] and the parent codecs that
   embed this message. *)
let write w t =
  match t with
  | Request { seq; low_water; payload } ->
    W.u8 w 0;
    W.varint w seq;
    W.varint w low_water;
    write_payload w payload
  | Reply { seq; rsp } ->
    W.u8 w 1;
    W.varint w seq;
    W.string w rsp
  | Redirect { seq; leader; members; epoch } ->
    W.u8 w 2;
    W.varint w seq;
    W.option w W.zigzag leader;
    W.list w W.zigzag members;
    W.varint w epoch
  | Request_batch { low_water; reqs } ->
    W.u8 w 3;
    W.varint w low_water;
    W.list w write_req reqs

let read r =
  match R.u8 r with
  | 0 ->
    let seq = R.varint r in
    let low_water = R.varint r in
    let payload = read_payload r in
    Request { seq; low_water; payload }
  | 1 ->
    let seq = R.varint r in
    Reply { seq; rsp = R.string r }
  | 2 ->
    let seq = R.varint r in
    let leader = R.option r R.zigzag in
    let members = R.list r R.zigzag in
    Redirect { seq; leader; members; epoch = R.varint r }
  | 3 ->
    let low_water = R.varint r in
    Request_batch { low_water; reqs = R.list r read_req }
  | _ -> raise Rsmr_app.Codec.Truncated

let encode t = W.to_string write t

let decode s = read (R.of_string s)

let pp ppf = function
  | Request { seq; payload = Cmd cmd; _ } ->
    Format.fprintf ppf "request(seq=%d,%d bytes)" seq (String.length cmd)
  | Request_batch { reqs; _ } ->
    Format.fprintf ppf "request_batch(%d reqs,seq=[%a])" (List.length reqs)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (fun ppf (seq, _) -> Format.pp_print_int ppf seq))
      reqs
  | Request { seq; payload = Change_membership members; _ } ->
    Format.fprintf ppf "request(seq=%d,members={%a})" seq
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Rsmr_net.Node_id.pp)
      members
  | Reply { seq; rsp } ->
    Format.fprintf ppf "reply(seq=%d,%d bytes)" seq (String.length rsp)
  | Redirect { seq; leader; members; epoch } ->
    Format.fprintf ppf "redirect(seq=%d,leader=%a,%d members,epoch=%d)" seq
      (Format.pp_print_option Rsmr_net.Node_id.pp)
      leader (List.length members) epoch
