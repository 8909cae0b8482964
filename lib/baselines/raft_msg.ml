module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type t =
  | Request_vote of { term : int; last_index : int; last_term : int }
  | Vote of { term : int; granted : bool }
  | Append of {
      term : int;
      prev_index : int;
      prev_term : int;
      entries : (int * Raft_log.entry) list;
      commit : int;
    }
  | Append_reply of { term : int; success : bool; match_index : int }
  | Install_snapshot of {
      term : int;
      last_index : int;
      last_term : int;
      members : Rsmr_net.Node_id.t list;
      offset : int;
      data : string;
      is_last : bool;
    }
  | Snapshot_chunk_ok of { term : int; offset : int }
  | Snapshot_reply of { term : int; last_index : int }

let encode_entry w (i, (e : Raft_log.entry)) =
  W.varint w i;
  W.varint w e.Raft_log.term;
  Raft_log.encode_payload w e.Raft_log.payload

let decode_entry r =
  let i = R.varint r in
  let term = R.varint r in
  (i, { Raft_log.term; payload = Raft_log.decode_payload r })

(* Single wire-format body shared by [encode] and the parent codecs that
   embed this message. *)
let write w t =
  match t with
  | Request_vote { term; last_index; last_term } ->
    W.u8 w 0;
    W.varint w term;
    W.varint w last_index;
    W.varint w last_term
  | Vote { term; granted } ->
    W.u8 w 1;
    W.varint w term;
    W.bool w granted
  | Append { term; prev_index; prev_term; entries; commit } ->
    W.u8 w 2;
    W.varint w term;
    W.varint w prev_index;
    W.varint w prev_term;
    W.list w encode_entry entries;
    W.varint w commit
  | Append_reply { term; success; match_index } ->
    W.u8 w 3;
    W.varint w term;
    W.bool w success;
    W.varint w match_index
  | Install_snapshot { term; last_index; last_term; members; offset; data; is_last } ->
    W.u8 w 4;
    W.varint w term;
    W.varint w last_index;
    W.varint w last_term;
    W.list w W.zigzag members;
    W.varint w offset;
    W.string w data;
    W.bool w is_last
  | Snapshot_reply { term; last_index } ->
    W.u8 w 5;
    W.varint w term;
    W.varint w last_index
  | Snapshot_chunk_ok { term; offset } ->
    W.u8 w 6;
    W.varint w term;
    W.varint w offset

let read r =
  match R.u8 r with
  | 0 ->
    let term = R.varint r in
    let last_index = R.varint r in
    Request_vote { term; last_index; last_term = R.varint r }
  | 1 ->
    let term = R.varint r in
    Vote { term; granted = R.bool r }
  | 2 ->
    let term = R.varint r in
    let prev_index = R.varint r in
    let prev_term = R.varint r in
    let entries = R.list r decode_entry in
    Append { term; prev_index; prev_term; entries; commit = R.varint r }
  | 3 ->
    let term = R.varint r in
    let success = R.bool r in
    Append_reply { term; success; match_index = R.varint r }
  | 4 ->
    let term = R.varint r in
    let last_index = R.varint r in
    let last_term = R.varint r in
    let members = R.list r R.zigzag in
    let offset = R.varint r in
    let data = R.string r in
    Install_snapshot
      { term; last_index; last_term; members; offset; data; is_last = R.bool r }
  | 5 ->
    let term = R.varint r in
    Snapshot_reply { term; last_index = R.varint r }
  | 6 ->
    let term = R.varint r in
    Snapshot_chunk_ok { term; offset = R.varint r }
  | _ -> raise Rsmr_app.Codec.Truncated

let encode t = W.to_string write t

let decode s = read (R.of_string s)

let tag = function
  | Request_vote _ -> "request_vote"
  | Vote _ -> "vote"
  | Append _ -> "append"
  | Append_reply _ -> "append_reply"
  | Install_snapshot _ -> "install_snapshot"
  | Snapshot_chunk_ok _ -> "snapshot_chunk_ok"
  | Snapshot_reply _ -> "snapshot_reply"

let pp ppf t =
  match t with
  | Request_vote { term; last_index; last_term } ->
    Format.fprintf ppf "request_vote(t=%d,li=%d,lt=%d)" term last_index last_term
  | Vote { term; granted } -> Format.fprintf ppf "vote(t=%d,%b)" term granted
  | Append { term; prev_index; entries; commit; _ } ->
    Format.fprintf ppf "append(t=%d,prev=%d,%d entries,ci=%d)" term prev_index
      (List.length entries) commit
  | Append_reply { term; success; match_index } ->
    Format.fprintf ppf "append_reply(t=%d,%b,mi=%d)" term success match_index
  | Install_snapshot { term; last_index; offset; data; is_last; _ } ->
    Format.fprintf ppf "install_snapshot(t=%d,li=%d,off=%d,%d bytes%s)" term
      last_index offset (String.length data)
      (if is_last then ",last" else "")
  | Snapshot_chunk_ok { term; offset } ->
    Format.fprintf ppf "snapshot_chunk_ok(t=%d,off=%d)" term offset
  | Snapshot_reply { term; last_index } ->
    Format.fprintf ppf "snapshot_reply(t=%d,li=%d)" term last_index
