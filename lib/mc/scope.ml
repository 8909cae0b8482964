type t = {
  nodes : int;
  spare : int;
  reconfigs : int;
  commands : int;
  crashes : int;
  drops : int;
  max_inflight : int;
  timer_width : int;
  timer_fires : int;
  depth : int;
  batch : int;
}

let minimal =
  {
    nodes = 3;
    spare = 1;
    reconfigs = 1;
    commands = 2;
    crashes = 0;
    drops = 1;
    max_inflight = 2;
    timer_width = 4;
    timer_fires = 2;
    depth = 60;
    batch = 0;
  }

let small =
  {
    nodes = 3;
    spare = 1;
    reconfigs = 2;
    commands = 2;
    crashes = 1;
    drops = 2;
    max_inflight = 2;
    timer_width = 4;
    timer_fires = 6;
    depth = 100;
    batch = 0;
  }

(* Node ids: protocol nodes are 1..nodes+spare so that id 0 stays free
   and the service's derived ids (directory = top+1, admin = top+2)
   stay predictable. *)
let initial_members t = List.init t.nodes (fun i -> i + 1)
let universe t = List.init (t.nodes + t.spare) (fun i -> i + 1)

(* The [r]-th scripted membership change rotates the window one node
   further along the universe: with nodes=3, spare=1 the first reconfig
   moves {1,2,3} to {2,3,4} — dropping one old member and fetching
   state into one genuinely new one. *)
let reconfig_members t r =
  let u = Array.of_list (universe t) in
  let n = Array.length u in
  List.init t.nodes (fun i -> u.((r + 1 + i) mod n))

let set t key value =
  match int_of_string_opt value with
  | None -> Error (Printf.sprintf "scope: %s=%s is not an integer" key value)
  | Some v -> (
    match key with
    | "nodes" -> Ok { t with nodes = v }
    | "spare" -> Ok { t with spare = v }
    | "reconfigs" -> Ok { t with reconfigs = v }
    | "commands" -> Ok { t with commands = v }
    | "crashes" -> Ok { t with crashes = v }
    | "drops" -> Ok { t with drops = v }
    | "max_inflight" -> Ok { t with max_inflight = v }
    | "timer_width" -> Ok { t with timer_width = v }
    | "timer_fires" -> Ok { t with timer_fires = v }
    | "depth" -> Ok { t with depth = v }
    | "batch" -> Ok { t with batch = v }
    | _ -> Error (Printf.sprintf "scope: unknown key %S" key))

let parse s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  let base, rest =
    match parts with
    | "minimal" :: rest -> (Ok minimal, rest)
    | "small" :: rest -> (Ok small, rest)
    | rest -> (Ok minimal, rest)
  in
  List.fold_left
    (fun acc part ->
      match acc with
      | Error _ -> acc
      | Ok t -> (
        match String.index_opt part '=' with
        | None ->
          Error (Printf.sprintf "scope: expected key=value, got %S" part)
        | Some i ->
          set t
            (String.sub part 0 i)
            (String.sub part (i + 1) (String.length part - i - 1))))
    base rest

let to_string t =
  Printf.sprintf
    "nodes=%d,spare=%d,reconfigs=%d,commands=%d,crashes=%d,drops=%d,max_inflight=%d,timer_width=%d,timer_fires=%d,depth=%d,batch=%d"
    t.nodes t.spare t.reconfigs t.commands t.crashes t.drops t.max_inflight
    t.timer_width t.timer_fires t.depth t.batch
