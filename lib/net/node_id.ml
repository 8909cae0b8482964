type t = int

let compare = Int.compare
let equal = Int.equal
let pp ppf n = Format.fprintf ppf "n%d" n

module Set = Set.Make (Int)
module Map = Map.Make (Int)
