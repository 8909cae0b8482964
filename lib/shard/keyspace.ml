type t = { boundaries : string array }

let of_boundaries boundaries =
  let arr = Array.of_list boundaries in
  let sorted = Array.copy arr in
  Array.sort String.compare sorted;
  if arr <> sorted then invalid_arg "Keyspace.of_boundaries: not sorted";
  { boundaries = arr }

let ranges ~shards ~n_keys =
  if shards < 1 then invalid_arg "Keyspace.ranges: shards < 1";
  let boundary i = Rsmr_workload.Keys.key_name (i * n_keys / shards) in
  of_boundaries (List.init (shards - 1) (fun i -> boundary (i + 1)))

let shards t = Array.length t.boundaries + 1

(* Index of the range containing [key]: the number of boundaries <= key,
   found by binary search over the sorted boundary array. *)
let shard_of t key =
  let b = t.boundaries in
  let lo = ref 0 and hi = ref (Array.length b) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare b.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo
