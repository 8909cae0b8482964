(* A table made by Hashtbl.Make has Hashtbl's bucket order and its
   partial [find]; neither may hide behind the functor application.
   [dump] walks a module-level instance and looks a key up in it;
   [count] folds over an instance bound by a local [let module]. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.length
end)

type t = int Tbl.t

let create () : t = Tbl.create 8

let dump t k =
  let keys = ref [] in
  Tbl.iter (fun key _ -> keys := key :: !keys) t;
  (!keys, Tbl.find t k)

let count xs =
  let module Ints = Hashtbl.MakeSeeded (struct
    type t = int

    let equal = Int.equal
    let seeded_hash _ x = x
  end) in
  let t = Ints.create 8 in
  List.iter (fun x -> Ints.replace t x ()) xs;
  Ints.fold (fun x () acc -> x :: acc) t []
