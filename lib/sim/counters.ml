type t = unit -> (string * int) list

let make read = read
let get t name = match List.assoc_opt name (t ()) with Some v -> v | None -> 0
let to_list t = List.sort (fun (a, _) (b, _) -> String.compare a b) (t ())

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (k, v) -> Format.fprintf ppf "%s=%d" k v)
    ppf (to_list t)
