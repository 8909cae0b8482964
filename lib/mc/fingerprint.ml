module Fnv = Rsmr_sim.Fnv

type t = int64

let of_string = Fnv.hash

(* Canonical key/value digest: bindings are sorted by key (then value,
   so duplicate keys are canonical too) before hashing, so a
   fingerprint assembled from independently-collected parts does not
   depend on the order the parts were gathered in.  Keys and values are
   length-framed, so neither ("ab","c")/("a","bc") nor key/value
   boundary shifts can alias. *)
let of_kv kvs =
  let sorted =
    List.sort
      (fun (k1, v1) (k2, v2) ->
        match String.compare k1 k2 with
        | 0 -> String.compare v1 v2
        | c -> c)
      kvs
  in
  List.fold_left
    (fun h (k, v) -> Fnv.combine_framed (Fnv.combine_framed h k) v)
    Fnv.empty sorted

let to_hex = Fnv.to_hex
let equal = Int64.equal
