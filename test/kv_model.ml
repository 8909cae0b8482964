(* Reference model of [Rsmr_app.Kv]: the store as a persistent
   [Map.Make (String)], as it was before the rerooted hash table, kept as
   the executable specification the table is checked against.  Same
   commands, responses and snapshot bytes. *)

module Kv = Rsmr_app.Kv
module Smap = Map.Make (String)
module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type t = string Smap.t

let init () = Smap.empty

let apply t (cmd : Kv.command) : t * Kv.response =
  match cmd with
  | Get k -> (t, Value (Smap.find_opt k t))
  | Put (k, v) -> (Smap.add k v t, Ok)
  | Delete k -> (Smap.remove k t, Ok)
  | Cas (k, expected, v) ->
    if Smap.find_opt k t = expected then (Smap.add k v t, Cas_result true)
    else (t, Cas_result false)
  | Append (k, v) ->
    let current = Option.value (Smap.find_opt k t) ~default:"" in
    (Smap.add k (current ^ v) t, Ok)

let write_snapshot w t =
  W.varint w (Smap.cardinal t);
  Smap.iter
    (fun k v ->
      W.string w k;
      W.string w v)
    t

let read_snapshot r =
  let n = R.varint r in
  let rec go acc i =
    if i = n then acc
    else
      let k = R.string r in
      let v = R.string r in
      go (Smap.add k v acc) (i + 1)
  in
  go Smap.empty 0

let snapshot t = W.to_string write_snapshot t
let restore s = read_snapshot (R.of_string s)
let cardinal = Smap.cardinal
let find t k = Smap.find_opt k t
