type t =
  | Deliver of { src : int; dst : int; bulk : bool }
  | Drop of { src : int; dst : int; bulk : bool }
  | Timer of { seq : int }
  | Crash of int
  | Recover of int
  | Client_op of { op : int }
  | Reconfig of { r : int }

let equal a b =
  match (a, b) with
  | Deliver x, Deliver y -> x.src = y.src && x.dst = y.dst && x.bulk = y.bulk
  | Drop x, Drop y -> x.src = y.src && x.dst = y.dst && x.bulk = y.bulk
  | Timer x, Timer y -> x.seq = y.seq
  | Crash x, Crash y -> x = y
  | Recover x, Recover y -> x = y
  | Client_op x, Client_op y -> x.op = y.op
  | Reconfig x, Reconfig y -> x.r = y.r
  | _ -> false

(* Compact one-token text form, the unit of counterexample traces and
   frontier files.  Chosen to survive shells and greps: no spaces, no
   quoting, ';' joins a sequence.  A bulk queue's choices are the
   upper-case letters. *)
let to_token = function
  | Deliver { src; dst; bulk } ->
    Printf.sprintf "%c%d-%d" (if bulk then 'D' else 'd') src dst
  | Drop { src; dst; bulk } ->
    Printf.sprintf "%c%d-%d" (if bulk then 'X' else 'x') src dst
  | Timer { seq } -> Printf.sprintf "t%d" seq
  | Crash n -> Printf.sprintf "c%d" n
  | Recover n -> Printf.sprintf "u%d" n
  | Client_op { op } -> Printf.sprintf "s%d" op
  | Reconfig { r } -> Printf.sprintf "g%d" r

let of_token tok =
  let num s = int_of_string_opt s in
  let pair s =
    match String.index_opt s '-' with
    | None -> None
    | Some i -> (
      match
        ( num (String.sub s 0 i),
          num (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some a, Some b -> Some (a, b)
      | _ -> None)
  in
  if String.length tok < 2 then None
  else
    let rest = String.sub tok 1 (String.length tok - 1) in
    match tok.[0] with
    | ('d' | 'D') as c ->
      Option.map
        (fun (src, dst) -> Deliver { src; dst; bulk = c = 'D' })
        (pair rest)
    | ('x' | 'X') as c ->
      Option.map (fun (src, dst) -> Drop { src; dst; bulk = c = 'X' }) (pair rest)
    | 't' -> Option.map (fun seq -> Timer { seq }) (num rest)
    | 'c' -> Option.map (fun n -> Crash n) (num rest)
    | 'u' -> Option.map (fun n -> Recover n) (num rest)
    | 's' -> Option.map (fun op -> Client_op { op }) (num rest)
    | 'g' -> Option.map (fun r -> Reconfig { r }) (num rest)
    | _ -> None

let seq_to_string cs = String.concat ";" (List.map to_token cs)

let seq_of_string s =
  if String.trim s = "" then Some []
  else
    let toks = String.split_on_char ';' (String.trim s) in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | tok :: rest -> (
        match of_token tok with
        | Some c -> go (c :: acc) rest
        | None -> None)
    in
    go [] toks

let pp ppf = function
  | Deliver { src; dst; bulk } ->
    Format.fprintf ppf "deliver head of %slink %d->%d"
      (if bulk then "bulk " else "") src dst
  | Drop { src; dst; bulk } ->
    Format.fprintf ppf "lose head of %slink %d->%d"
      (if bulk then "bulk " else "") src dst
  | Timer { seq } -> Format.fprintf ppf "fire timer #%d" seq
  | Crash n -> Format.fprintf ppf "crash node %d" n
  | Recover n -> Format.fprintf ppf "recover node %d" n
  | Client_op { op } -> Format.fprintf ppf "client submits command %d" op
  | Reconfig { r } -> Format.fprintf ppf "admin submits reconfiguration %d" r
