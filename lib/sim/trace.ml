type level = Debug | Info | Warn

type topic =
  [ `Paxos
  | `Vr
  | `Raft
  | `Reconfig
  | `Net
  | `Client
  | `Lifecycle
  | `Other of string ]

let topic_name = function
  | `Paxos -> "paxos"
  | `Vr -> "vr"
  | `Raft -> "raft"
  | `Reconfig -> "reconfig"
  | `Net -> "net"
  | `Client -> "client"
  | `Lifecycle -> "lifecycle"
  | `Other s -> s

type event = {
  time : float;
  node : int;
  topic : topic;
  level : level;
  message : string;
  attrs : (string * string) list;
}

type t = {
  mutable subscribers : (event -> unit) list;
  mutable retained : event list;  (* newest first *)
  mutable retain : bool;
  counts : (string, int ref) Hashtbl.t;
}

let create () =
  { subscribers = []; retained = []; retain = false; counts = Hashtbl.create 16 }

let active t = t.retain || t.subscribers <> []

let emit t ~time ~node ~topic ?(level = Info) ?(attrs = []) message =
  let ev = { time; node; topic; level; message; attrs } in
  let name = topic_name topic in
  (match Hashtbl.find_opt t.counts name with
   | Some r -> incr r
   | None -> Hashtbl.add t.counts name (ref 1));
  if t.retain then t.retained <- ev :: t.retained;
  List.iter (fun f -> f ev) (List.rev t.subscribers)

let subscribe t f = t.subscribers <- f :: t.subscribers
let keep t b = t.retain <- b
let events t = List.rev t.retained

let count t ~topic =
  match Hashtbl.find_opt t.counts (topic_name topic) with
  | Some r -> !r
  | None -> 0

let attr ev key = List.assoc_opt key ev.attrs
