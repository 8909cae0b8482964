module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type t =
  | Prepare of { ballot : Ballot.t; from_index : int }
  | Promise of {
      ballot : Ballot.t;
      from_index : int;
      entries : (int * Log.entry) list;
      commit_index : int;
    }
  | Reject of { ballot : Ballot.t; higher : Ballot.t }
  | Accept of { ballot : Ballot.t; index : int; kind : Log.kind; commit_index : int }
  | Accept_multi of {
      ballot : Ballot.t;
      from_index : int;
      kinds : Log.kind list;  (** consecutive slots from [from_index] *)
      commit_index : int;
    }
  | Accepted of { ballot : Ballot.t; index : int }
  | Accepted_multi of { ballot : Ballot.t; from_index : int; upto : int }
  | Heartbeat of { ballot : Ballot.t; commit_index : int }
  | Learn_req of { from_index : int }
  | Learn_rsp of { entries : (int * Log.kind) list; commit_index : int }
  | Submit of { value : string }
  | Submit_multi of { values : string list }
      (** forwarded vector submission: ordered client commands that should
          be proposed as one batch by whoever is leader *)

let encode_entry w (i, (e : Log.entry)) =
  W.varint w i;
  Ballot.encode w e.ballot;
  Log.encode_kind w e.kind

let decode_entry r =
  let i = R.varint r in
  let ballot = Ballot.decode r in
  let kind = Log.decode_kind r in
  (i, { Log.ballot; kind })

let encode_learned w (i, kind) =
  W.varint w i;
  Log.encode_kind w kind

let decode_learned r =
  let i = R.varint r in
  (i, Log.decode_kind r)

(* Single wire-format body shared by [encode] (buffer sink) and [size]
   (counting sink). *)
let write w t =
  match t with
  | Prepare { ballot; from_index } ->
    W.u8 w 0;
    Ballot.encode w ballot;
    W.varint w from_index
  | Promise { ballot; from_index; entries; commit_index } ->
    W.u8 w 1;
    Ballot.encode w ballot;
    W.varint w from_index;
    W.list w encode_entry entries;
    W.varint w commit_index
  | Reject { ballot; higher } ->
    W.u8 w 2;
    Ballot.encode w ballot;
    Ballot.encode w higher
  | Accept { ballot; index; kind; commit_index } ->
    W.u8 w 3;
    Ballot.encode w ballot;
    W.varint w index;
    Log.encode_kind w kind;
    W.varint w commit_index
  | Accepted { ballot; index } ->
    W.u8 w 4;
    Ballot.encode w ballot;
    W.varint w index
  | Heartbeat { ballot; commit_index } ->
    W.u8 w 5;
    Ballot.encode w ballot;
    W.varint w commit_index
  | Learn_req { from_index } ->
    W.u8 w 6;
    W.varint w from_index
  | Learn_rsp { entries; commit_index } ->
    W.u8 w 7;
    W.list w encode_learned entries;
    W.varint w commit_index
  | Submit { value } ->
    W.u8 w 8;
    W.string w value
  | Accept_multi { ballot; from_index; kinds; commit_index } ->
    W.u8 w 9;
    Ballot.encode w ballot;
    W.varint w from_index;
    W.list w Log.encode_kind kinds;
    W.varint w commit_index
  | Accepted_multi { ballot; from_index; upto } ->
    W.u8 w 10;
    Ballot.encode w ballot;
    W.varint w from_index;
    W.varint w upto
  | Submit_multi { values } ->
    W.u8 w 11;
    W.list w W.string values

let read r =
  match R.u8 r with
  | 0 ->
    let ballot = Ballot.decode r in
    Prepare { ballot; from_index = R.varint r }
  | 1 ->
    let ballot = Ballot.decode r in
    let from_index = R.varint r in
    let entries = R.list r decode_entry in
    Promise { ballot; from_index; entries; commit_index = R.varint r }
  | 2 ->
    let ballot = Ballot.decode r in
    Reject { ballot; higher = Ballot.decode r }
  | 3 ->
    let ballot = Ballot.decode r in
    let index = R.varint r in
    let kind = Log.decode_kind r in
    Accept { ballot; index; kind; commit_index = R.varint r }
  | 4 ->
    let ballot = Ballot.decode r in
    Accepted { ballot; index = R.varint r }
  | 5 ->
    let ballot = Ballot.decode r in
    Heartbeat { ballot; commit_index = R.varint r }
  | 6 -> Learn_req { from_index = R.varint r }
  | 7 ->
    let entries = R.list r decode_learned in
    Learn_rsp { entries; commit_index = R.varint r }
  | 8 -> Submit { value = R.string r }
  | 9 ->
    let ballot = Ballot.decode r in
    let from_index = R.varint r in
    let kinds = R.list r Log.decode_kind in
    Accept_multi { ballot; from_index; kinds; commit_index = R.varint r }
  | 10 ->
    let ballot = Ballot.decode r in
    let from_index = R.varint r in
    Accepted_multi { ballot; from_index; upto = R.varint r }
  | 11 -> Submit_multi { values = R.list r R.string }
  | _ -> raise Rsmr_app.Codec.Truncated

let encode t = W.to_string write t

let decode s = read (R.of_string s)

let size t = W.size write t

(* Tag from the leading wire byte alone, so the network tagger can
   classify an encoded payload without a full decode.  The one tag
   table: [tag] is defined through it. *)
let tag_of_encoded s =
  if String.length s = 0 then "invalid"
  else
    match Char.code s.[0] with
    | 0 -> "prepare"
    | 1 -> "promise"
    | 2 -> "reject"
    | 3 -> "accept"
    | 4 -> "accepted"
    | 5 -> "heartbeat"
    | 6 -> "learn_req"
    | 7 -> "learn_rsp"
    | 8 -> "submit"
    | 9 -> "accept_multi"
    | 10 -> "accepted_multi"
    | 11 -> "submit_multi"
    | _ -> "invalid"

let tag m = tag_of_encoded (encode m)

let pp ppf t =
  match t with
  | Prepare { ballot; from_index } ->
    Format.fprintf ppf "prepare(%a,from=%d)" Ballot.pp ballot from_index
  | Promise { ballot; entries; commit_index; _ } ->
    Format.fprintf ppf "promise(%a,%d entries,ci=%d)" Ballot.pp ballot
      (List.length entries) commit_index
  | Reject { ballot; higher } ->
    Format.fprintf ppf "reject(%a,higher=%a)" Ballot.pp ballot Ballot.pp higher
  | Accept { ballot; index; kind; commit_index } ->
    Format.fprintf ppf "accept(%a,i=%d,%a,ci=%d)" Ballot.pp ballot index
      Log.pp_kind kind commit_index
  | Accepted { ballot; index } ->
    Format.fprintf ppf "accepted(%a,i=%d)" Ballot.pp ballot index
  | Heartbeat { ballot; commit_index } ->
    Format.fprintf ppf "heartbeat(%a,ci=%d)" Ballot.pp ballot commit_index
  | Learn_req { from_index } -> Format.fprintf ppf "learn_req(from=%d)" from_index
  | Learn_rsp { entries; commit_index } ->
    Format.fprintf ppf "learn_rsp(%d entries,ci=%d)" (List.length entries)
      commit_index
  | Submit { value } -> Format.fprintf ppf "submit(%d bytes)" (String.length value)
  | Accept_multi { ballot; from_index; kinds; commit_index } ->
    Format.fprintf ppf "accept_multi(%a,from=%d,%d kinds,ci=%d)" Ballot.pp
      ballot from_index (List.length kinds) commit_index
  | Accepted_multi { ballot; from_index; upto } ->
    Format.fprintf ppf "accepted_multi(%a,%d..%d)" Ballot.pp ballot from_index
      upto
  | Submit_multi { values } ->
    Format.fprintf ppf "submit_multi(%d values)" (List.length values)
