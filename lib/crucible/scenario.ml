type shape =
  | Service of { members : int list; universe : int list }
  | Platform of { pool : int list; shards : int list list; dir : int list }

type fault =
  | Crash of int
  | Recover of int
  | Partition of int list list
  | Heal
  | Link_fault of { src : int; dst : int; drop : float }
  | Clear_links
  | Duplicate of float
  | Drop of float
  | Reconfigure of int list
  | Isolate_dir of int list
  | Rebalance of int

type event = { at : float; fault : fault }

type t = {
  seed : int;
  shape : shape;
  n_clients : int;
  duration : float;
  events : event list;
}

let sort_events events =
  List.stable_sort (fun a b -> Float.compare a.at b.at) events

(* --- compact wire form ---

   One field per ';', events joined by '|'.  Everything is printable
   ASCII with no quotes, so a whole scenario fits one shell argument:

     s=7;m=0,1,2;u=0,1,2,3,4;c=3;d=2.5;ev=0.41 crash 1|0.9 recover 1

   A platform replaces [m=] and [u=] with pool, shards and directory:
     s=7;p=0,1,2,3;sh=0,1/2,3;dir=0,2;c=4;d=2.8;ev=0.6 isolate 0,2|1.8 heal

   Floats are printed with up to 12 significant digits; the generator
   quantizes times to milliseconds and probabilities to hundredths, so
   the round trip is exact. *)

let float_to_string f = Printf.sprintf "%.12g" f

let ids_to_string ids = String.concat "," (List.map string_of_int ids)
let groups_to_string gs = String.concat "/" (List.map ids_to_string gs)

let fault_to_string = function
  | Crash n -> Printf.sprintf "crash %d" n
  | Recover n -> Printf.sprintf "recover %d" n
  | Partition groups ->
    Printf.sprintf "part %s" (groups_to_string groups)
  | Heal -> "heal"
  | Link_fault { src; dst; drop } ->
    Printf.sprintf "link %d>%d %s" src dst (float_to_string drop)
  | Clear_links -> "clearlinks"
  | Duplicate p -> Printf.sprintf "dup %s" (float_to_string p)
  | Drop p -> Printf.sprintf "drop %s" (float_to_string p)
  | Reconfigure ids -> Printf.sprintf "reconf %s" (ids_to_string ids)
  | Isolate_dir ids -> Printf.sprintf "isolate %s" (ids_to_string ids)
  | Rebalance from_ -> Printf.sprintf "rebal %d" from_

let to_string t =
  let ev =
    String.concat "|"
      (List.map
         (fun e ->
           Printf.sprintf "%s %s" (float_to_string e.at)
             (fault_to_string e.fault))
         t.events)
  in
  let shape =
    match t.shape with
    | Service { members; universe } ->
      Printf.sprintf "m=%s;u=%s" (ids_to_string members)
        (ids_to_string universe)
    | Platform { pool; shards; dir } ->
      Printf.sprintf "p=%s;sh=%s;dir=%s" (ids_to_string pool)
        (groups_to_string shards) (ids_to_string dir)
  in
  Printf.sprintf "s=%d;%s;c=%d;d=%s;ev=%s" t.seed shape t.n_clients
    (float_to_string t.duration) ev

let pp ppf t = Format.pp_print_string ppf (to_string t)
let equal a b = String.equal (to_string a) (to_string b)

(* --- parsing (total: every failure is an [Error]) --- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let int_of r s =
  match int_of_string_opt (String.trim s) with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: bad integer %S" r s)

let float_of r s =
  match float_of_string_opt (String.trim s) with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: bad float %S" r s)

(* [parse] over the [sep]-separated parts of [s]; the first error wins. *)
let split_map sep parse s =
  List.fold_left
    (fun acc part ->
      let* xs = acc in
      let* x = parse part in
      Ok (x :: xs))
    (Ok []) (String.split_on_char sep s)
  |> Result.map List.rev

let ids_of r = split_map ',' (int_of r)
let groups_of r = split_map '/' (ids_of r)

let fault_of_string s =
  let s = String.trim s in
  let word, rest =
    match String.index_opt s ' ' with
    | Some i ->
      ( String.sub s 0 i,
        String.sub s (i + 1) (String.length s - i - 1) |> String.trim )
    | None -> (s, "")
  in
  match word with
  | "crash" ->
    let* n = int_of "crash" rest in
    Ok (Crash n)
  | "recover" ->
    let* n = int_of "recover" rest in
    Ok (Recover n)
  | "part" ->
    let* groups = groups_of "part" rest in
    Ok (Partition groups)
  | "heal" -> Ok Heal
  | "link" -> (
    match String.split_on_char ' ' rest with
    | [ pair; p ] -> (
      match String.split_on_char '>' pair with
      | [ src; dst ] ->
        let* src = int_of "link" src in
        let* dst = int_of "link" dst in
        let* drop = float_of "link" p in
        Ok (Link_fault { src; dst; drop })
      | _ -> Error (Printf.sprintf "link: expected src>dst, got %S" pair))
    | _ -> Error (Printf.sprintf "link: expected 'src>dst p', got %S" rest))
  | "clearlinks" -> Ok Clear_links
  | "dup" ->
    let* p = float_of "dup" rest in
    Ok (Duplicate p)
  | "drop" ->
    let* p = float_of "drop" rest in
    Ok (Drop p)
  | "reconf" ->
    let* ids = ids_of "reconf" rest in
    Ok (Reconfigure ids)
  | "isolate" ->
    let* ids = ids_of "isolate" rest in
    Ok (Isolate_dir ids)
  | "rebal" ->
    let* from_ = int_of "rebal" rest in
    Ok (Rebalance from_)
  | other -> Error (Printf.sprintf "unknown fault %S" other)

let event_of_string s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> Error (Printf.sprintf "event %S: expected 'time fault'" s)
  | Some i ->
    let* at = float_of "event time" (String.sub s 0 i) in
    let* fault =
      fault_of_string (String.sub s (i + 1) (String.length s - i - 1))
    in
    Ok { at; fault }

(* What each shape can build and apply, so that the runner takes any
   parsed scenario without raising.  (Node lists parse non-empty.) *)
let check_shape = function
  | Service _ -> Ok ()
  | Platform { pool; shards; dir } ->
    if List.for_all (List.for_all (fun n -> List.mem n pool)) (dir :: shards)
    then Ok ()
    else Error "platform: a shard or the directory leaves the pool"

let platform_fault = function Isolate_dir _ | Rebalance _ -> true | _ -> false

let fits shape fault =
  match (shape, fault) with
  | _, (Crash _ | Recover _ | Heal) -> true
  | Platform { shards; _ }, Rebalance i -> i >= 0 && i < List.length shards
  | Platform _, f -> platform_fault f
  | Service _, f -> not (platform_fault f)

let of_string s =
  let fields = String.split_on_char ';' (String.trim s) in
  let find key =
    let prefix = key ^ "=" in
    let plen = String.length prefix in
    List.find_map
      (fun f ->
        if String.length f >= plen && String.sub f 0 plen = prefix then
          Some (String.sub f plen (String.length f - plen))
        else None)
      fields
  in
  let req key =
    match find key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %s=" key)
  in
  let field key parse =
    let* v = req key in
    parse key v
  in
  let* seed = field "s" int_of in
  let* shape =
    match (find "m", find "p") with
    | Some _, Some _ -> Error "both m= and p= given"
    | _, None ->
      let* members = field "m" ids_of in
      let* universe = field "u" ids_of in
      Ok (Service { members; universe })
    | None, Some _ ->
      let* pool = field "p" ids_of in
      let* shards = field "sh" groups_of in
      let* dir = field "dir" ids_of in
      Ok (Platform { pool; shards; dir })
  in
  let* n_clients = field "c" int_of in
  let* duration = field "d" float_of in
  let* events =
    match find "ev" with
    | None | Some "" -> Ok []
    | Some ev -> split_map '|' event_of_string ev
  in
  let* () = check_shape shape in
  match List.find_opt (fun e -> not (fits shape e.fault)) events with
  | Some e ->
    Error (Printf.sprintf "%S does not apply to this shape"
             (fault_to_string e.fault))
  | None ->
    if n_clients < 1 then Error "need at least one client"
    else if duration <= 0.0 then Error "non-positive duration"
    else Ok { seed; shape; n_clients; duration; events = sort_events events }
