(* A Hashtbl.Make instance walks its buckets in the same insertion-
   dependent order as Hashtbl itself, whether bound at the top level or
   by a local [let module]. *)
module Tbl = Hashtbl.Make (String)

let keys t = Tbl.fold (fun k _ acc -> k :: acc) t []

let count xs =
  let module Ints = Hashtbl.MakeSeeded (struct
    type t = int

    let equal = Int.equal
    let seeded_hash _ x = x
  end) in
  let t = Ints.create 8 in
  List.iter (fun x -> Ints.replace t x ()) xs;
  let n = ref 0 in
  Ints.iter (fun _ () -> incr n) t;
  !n
