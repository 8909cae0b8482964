module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Registry = Rsmr_obs.Registry

type 'm envelope = { src : Node_id.t; dst : Node_id.t; payload : 'm }

type mode = [ `Sim | `Enumerate ]

(* A bulk copy waiting in its sender's backlog for the uplink.  Its
   latency was drawn at send time; only its departure is still open. *)
type 'm waiting = { size : int; latency : float; env : 'm envelope }

type 'm t = {
  engine : Engine.t;
  mode : mode;
  (* Enumerate mode: one FIFO queue of undelivered payloads per directed
     link and class ([true] = bulk).  Only the head of each queue is
     deliverable, so the per-class link order `Sim mode enforces with
     arrival-time bumps holds by construction here. *)
  queues : (Node_id.t * Node_id.t * bool, 'm Queue.t) Hashtbl.t;
  bulk : ('m -> bool) option;
  latency : Latency.t;
  mutable drop : float;
  mutable duplicate : float;
  bandwidth : float;
  sizer : 'm -> int;
  rng : Rng.t;
  handlers : (Node_id.t, 'm envelope -> unit) Hashtbl.t;
  mutable crashed : Node_id.Set.t;
  mutable groups : Node_id.Set.t list; (* empty list = no partition *)
  link_drop : (Node_id.t * Node_id.t, float) Hashtbl.t;
  egress_free_at : (Node_id.t, float) Hashtbl.t;
  (* Sim mode: per sender, the bulk copies not yet on the wire, oldest
     first.  A non-empty backlog always has one pump event pending. *)
  backlog : (Node_id.t, 'm waiting Queue.t) Hashtbl.t;
  tagger : ('m -> string) option;
  (* Latest scheduled arrival per directed link, one table per class. *)
  last_arrival : (Node_id.t * Node_id.t, float) Hashtbl.t;
  last_bulk_arrival : (Node_id.t * Node_id.t, float) Hashtbl.t;
  obs : Registry.t;
  (* The registry cells every send touches, resolved once, so the hot
     path bumps refs instead of hashing counter names per message. *)
  c_sent : int ref;
  c_bytes_sent : int ref;
  c_delivered : int ref;
  c_dropped : int ref;
  c_duplicated : int ref;
  (* tag -> the (sent, bytes) cells labelled with that msg_type, so
     per-tag accounting resolves each pair once. *)
  tag_handles : (string, int ref * int ref) Hashtbl.t;
}

let create engine ?(mode = `Sim) ?(latency = Latency.lan) ?(drop = 0.0)
    ?(bandwidth = 1.25e8) ?bulk ?tagger ?(sizer = fun _ -> 64) ?obs () =
  let obs = match obs with Some reg -> reg | None -> Registry.create () in
  let cell name = Registry.counter obs ~labels:[ ("section", "net") ] name in
  {
    engine;
    mode;
    queues = Hashtbl.create 16;
    bulk;
    latency;
    drop;
    duplicate = 0.0;
    bandwidth;
    sizer;
    rng = Rng.split (Engine.rng engine);
    handlers = Hashtbl.create 64;
    crashed = Node_id.Set.empty;
    groups = [];
    link_drop = Hashtbl.create 8;
    egress_free_at = Hashtbl.create 32;
    backlog = Hashtbl.create 8;
    tagger;
    last_arrival = Hashtbl.create 64;
    last_bulk_arrival = Hashtbl.create 8;
    obs;
    c_sent = cell "sent";
    c_bytes_sent = cell "bytes_sent";
    c_delivered = cell "delivered";
    c_dropped = cell "dropped";
    c_duplicated = cell "duplicated";
    tag_handles = Hashtbl.create 16;
  }

let register t node f = Hashtbl.replace t.handlers node f

let crash t node = t.crashed <- Node_id.Set.add node t.crashed
let recover t node = t.crashed <- Node_id.Set.remove node t.crashed
let is_crashed t node = Node_id.Set.mem node t.crashed

let partition t groups =
  t.groups <- List.map Node_id.Set.of_list groups

let heal t = t.groups <- []

let set_link_fault t ~src ~dst ~drop =
  Hashtbl.replace t.link_drop (src, dst) drop

let clear_link_faults t = Hashtbl.reset t.link_drop
let set_drop t p = t.drop <- p
let set_duplicate t p = t.duplicate <- p

let counters t = Registry.counters t.obs "net"

let connected t src dst =
  match t.groups with
  | [] -> true
  | groups ->
    List.exists
      (fun g -> Node_id.Set.mem src g && Node_id.Set.mem dst g)
      groups

let link_drop_prob t src dst =
  match Hashtbl.find_opt t.link_drop (src, dst) with
  | Some p -> p
  | None -> 0.0

let deliver t env =
  if not (Node_id.Set.mem env.dst t.crashed) then
    match Hashtbl.find_opt t.handlers env.dst with
    | Some f ->
      t.c_delivered := !(t.c_delivered) + 1;
      f env
    | None -> t.c_dropped := !(t.c_dropped) + 1

(* Egress serialization: a control message holds the sender's uplink
   for size/bandwidth seconds, starting once the uplink is free of
   every control message sent before it and of the bulk message on the
   wire.  Returns the added delay before the message enters the wire. *)
let egress_delay t src size =
  if t.bandwidth = infinity then 0.0
  else begin
    let now = Engine.now t.engine in
    let free_at =
      match Hashtbl.find_opt t.egress_free_at src with
      | Some f when f > now -> f
      | Some _ | None -> now
    in
    let ser = float_of_int size /. t.bandwidth in
    Hashtbl.replace t.egress_free_at src (free_at +. ser);
    free_at +. ser -. now
  end

(* Partition / crash are re-checked at delivery time so that a partition
   installed while a message is in flight cuts it off, matching how long
   network convulsions behave. *)
let schedule_arrival t ~delay env =
  ignore
    (Engine.schedule t.engine ~delay (fun () ->
         if connected t env.src env.dst then deliver t env
         else t.c_dropped := !(t.c_dropped) + 1))

(* Schedule [env]'s arrival [delay] from now, bumped behind the latest
   arrival recorded in [last] for its link: a message never overtakes an
   earlier one of its class on the same directed link, as over a TCP
   stream.  Protocols built for stream transports (pipelined Raft
   appends) depend on this.  Inlined, and the closure lives in
   {!schedule_arrival}, so [delay] is not boxed on the way in. *)
let[@inline] depart t last ~delay env =
  let now = Engine.now t.engine in
  let arrival = now +. delay in
  let arrival =
    match Hashtbl.find_opt last (env.src, env.dst) with
    | Some prev when prev >= arrival -> prev +. 1e-9
    | Some _ | None -> arrival
  in
  Hashtbl.replace last (env.src, env.dst) arrival;
  schedule_arrival t ~delay:(arrival -. now) env

(* The sender's uplink is non-preemptive: the message on the wire
   finishes, then every queued control message goes before the oldest
   waiting bulk copy.  Control messages reserve the uplink at send time
   ({!egress_delay}), so a pump that finds it reserved past now simply
   comes back when it frees. *)
let rec pump t src backlog =
  let now = Engine.now t.engine in
  match Hashtbl.find_opt t.egress_free_at src with
  | Some f when f > now ->
    ignore (Engine.at t.engine ~time:f (fun () -> pump t src backlog))
  | Some _ | None -> (
    match Queue.take_opt backlog with
    | None -> ()
    | Some w ->
      let ser = float_of_int w.size /. t.bandwidth in
      let free_at = now +. ser in
      Hashtbl.replace t.egress_free_at src free_at;
      depart t t.last_bulk_arrival ~delay:(ser +. w.latency) w.env;
      if not (Queue.is_empty backlog) then
        ignore
          (Engine.at t.engine ~time:free_at (fun () -> pump t src backlog)))

let send_bulk t ~size ~latency env =
  let backlog =
    match Hashtbl.find_opt t.backlog env.src with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add t.backlog env.src q;
      q
  in
  let idle = Queue.is_empty backlog in
  Queue.add { size; latency; env } backlog;
  if idle then pump t env.src backlog

(* The (sent, bytes) cell pair for [tag], resolved only the first time
   the tag appears. *)
let tag_handles t tag =
  match Hashtbl.find_opt t.tag_handles tag with
  | Some h -> h
  | None ->
    let labels = [ ("msg_type", tag); ("section", "net") ] in
    let h =
      ( Registry.counter t.obs ~labels "sent",
        Registry.counter t.obs ~labels "bytes" )
    in
    Hashtbl.add t.tag_handles tag h;
    h

(* Size and per-tag accounting for a payload, resolved once per logical
   send: [broadcast] shares one [prepare] across its whole fan-out, so a
   payload sent to n peers is sized and tagged once, not n times. *)
let prepare t payload =
  let size = t.sizer payload in
  let chan =
    match t.tagger with
    | Some tag -> Some (tag_handles t (tag payload))
    | None -> None
  in
  (size, chan)

(* Enumerate-mode send: no randomness, no latency, no engine event —
   the payload parks on its link's queue for its class until the model
   checker picks it (deliver_head) or loses it (drop_head).  Send-time
   crash and partition checks match `Sim mode exactly. *)
let enqueue t ~src ~dst ~bulk payload =
  if Node_id.Set.mem src t.crashed then t.c_dropped := !(t.c_dropped) + 1
  else if not (connected t src dst) then t.c_dropped := !(t.c_dropped) + 1
  else begin
    let q =
      match Hashtbl.find_opt t.queues (src, dst, bulk) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t.queues (src, dst, bulk) q;
        q
    in
    Queue.add payload q
  end

let is_bulk t payload =
  match t.bulk with Some f -> f payload | None -> false

(* Drop, duplication and latency are drawn here, at send time and in
   send order, whatever the class: a run with no bulk traffic draws and
   schedules exactly as a one-class network would.  Only a bulk copy's
   departure waits for the uplink. *)
let transmit t ~src ~dst ~size ~chan payload =
  t.c_sent := !(t.c_sent) + 1;
  t.c_bytes_sent := !(t.c_bytes_sent) + size;
  (match chan with
   | Some (sent, bytes) ->
     sent := !sent + 1;
     bytes := !bytes + size
   | None -> ());
  if t.mode = `Enumerate then
    enqueue t ~src ~dst ~bulk:(is_bulk t payload) payload
  else begin
  let env = { src; dst; payload } in
  if Node_id.Set.mem src t.crashed then t.c_dropped := !(t.c_dropped) + 1
  else if not (connected t src dst) then t.c_dropped := !(t.c_dropped) + 1
  else begin
    let p_drop = t.drop +. link_drop_prob t src dst in
    if Rng.bernoulli t.rng p_drop then t.c_dropped := !(t.c_dropped) + 1
    else begin
      let copies =
        if t.duplicate > 0.0 && Rng.bernoulli t.rng t.duplicate then begin
          t.c_duplicated := !(t.c_duplicated) + 1;
          2
        end
        else 1
      in
      let bulk = is_bulk t payload in
      for _ = 1 to copies do
        (* A self-send never touches the uplink, whatever its class. *)
        if bulk && src <> dst then
          send_bulk t ~size ~latency:(Latency.sample t.latency t.rng) env
        else
          let delay =
            if src = dst then 1e-6
            else egress_delay t src size +. Latency.sample t.latency t.rng
          in
          depart t t.last_arrival ~delay env
      done
    end
  end
  end

let send t ~src ~dst payload =
  let size, chan = prepare t payload in
  transmit t ~src ~dst ~size ~chan payload

let broadcast t ~src ~dsts payload =
  match dsts with
  | [] -> ()
  | dsts ->
    let size, chan = prepare t payload in
    List.iter
      (fun dst ->
        if not (Node_id.equal dst src) then
          transmit t ~src ~dst ~size ~chan payload)
      dsts

(* ------------------------------------------------------------------ *)
(* Enumerate-mode introspection.  All listing is in sorted link order so
   the checker's choice enumeration (and anything fingerprinting the
   in-flight set) is deterministic regardless of hash-table layout. *)

let compare_link (s1, d1, b1) (s2, d2, b2) =
  match Int.compare (s1 : Node_id.t) s2 with
  | 0 -> (
    match Int.compare (d1 : Node_id.t) d2 with
    | 0 -> Bool.compare b1 b2
    | c -> c)
  | c -> c

let links t =
  List.rev
    (Rsmr_sim.Stable.fold_sorted ~compare:compare_link
       (fun link q acc -> if Queue.is_empty q then acc else link :: acc)
       t.queues [])

let queued t ~src ~dst ~bulk =
  match Hashtbl.find_opt t.queues (src, dst, bulk) with
  | None -> []
  | Some q -> List.rev (Queue.fold (fun acc m -> m :: acc) [] q)

let pending_total t =
  Rsmr_sim.Stable.fold_sorted ~compare:compare_link
    (fun _ q acc -> acc + Queue.length q)
    t.queues 0

let take_head t ~src ~dst ~bulk =
  match Hashtbl.find_opt t.queues (src, dst, bulk) with
  | None -> None
  | Some q ->
    if Queue.is_empty q then None
    else begin
      let payload = Queue.pop q in
      if Queue.is_empty q then Hashtbl.remove t.queues (src, dst, bulk);
      Some payload
    end

let deliver_head t ~src ~dst ~bulk =
  match take_head t ~src ~dst ~bulk with
  | None -> None
  | Some payload ->
    (* Same delivery-time re-checks as the `Sim delivery closure: a
       partition installed after the send cuts the message off, and
       [deliver] itself drops on a crashed destination. *)
    if connected t src dst then deliver t { src; dst; payload }
    else t.c_dropped := !(t.c_dropped) + 1;
    Some payload

let drop_head t ~src ~dst ~bulk =
  match take_head t ~src ~dst ~bulk with
  | None -> None
  | Some payload ->
    t.c_dropped := !(t.c_dropped) + 1;
    Some payload
