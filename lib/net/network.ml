module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Registry = Rsmr_obs.Registry

type 'm envelope = { src : Node_id.t; dst : Node_id.t; payload : 'm }

type mode = [ `Sim | `Enumerate ]

(* A bulk copy waiting in its sender's backlog for the uplink.  Its
   latency was drawn at send time; only its departure is still open. *)
type 'm waiting = { size : int; latency : float; env : 'm envelope }

(* Float cells indexed by node id, grown on demand; a cell never written
   reads [neg_infinity].  A float array holds its elements unboxed, so
   reading or writing a cell it covers allocates nothing. *)
module Cells = struct
  type t = { mutable v : float array }

  let create () = { v = [||] }

  let[@inline] get c i =
    if i < Array.length c.v then c.v.(i) else neg_infinity

  let grow c i =
    let v = Array.make (max (i + 1) (2 * Array.length c.v)) neg_infinity in
    Array.blit c.v 0 v 0 (Array.length c.v);
    c.v <- v

  let[@inline] set c i x =
    if i >= Array.length c.v then grow c i;
    c.v.(i) <- x
end

(* One row of {!Cells} per sender: a float cell per directed link. *)
module Links = struct
  type t = { mutable rows : Cells.t array }

  let create () = { rows = [||] }

  let row l src =
    let n = Array.length l.rows in
    if src >= n then
      l.rows <-
        Array.init (max (src + 1) (2 * n)) (fun i ->
            if i < n then l.rows.(i) else Cells.create ());
    l.rows.(src)
end

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
  (* Per sender: when its uplink is next free. *)
  egress_free_at : Cells.t;
  (* Sim mode: per sender, the bulk copies not yet on the wire, oldest
     first.  A non-empty backlog always has one pump event pending. *)
  backlog : (Node_id.t, 'm waiting Queue.t) Hashtbl.t;
  tagger : ('m -> string) option;
  (* Latest scheduled arrival per directed link, one table per class. *)
  last_arrival : Links.t;
  last_bulk_arrival : Links.t;
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
  untagged : int ref * int ref;
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
    egress_free_at = Cells.create ();
    backlog = Hashtbl.create 8;
    tagger;
    last_arrival = Links.create ();
    last_bulk_arrival = Links.create ();
    obs;
    c_sent = cell "sent";
    c_bytes_sent = cell "bytes_sent";
    c_delivered = cell "delivered";
    c_dropped = cell "dropped";
    c_duplicated = cell "duplicated";
    tag_handles = Hashtbl.create 16;
    untagged = (ref 0, ref 0);
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

(* The drop probability of a send on [src -> dst].  With no link fault
   installed (the common case) it is the global [drop] itself: no key is
   built and no float is boxed.  Adding a missing fault's [0.0] would
   change only [-0.], which [bernoulli] treats as [0.]. *)
let drop_prob t src dst =
  if Hashtbl.length t.link_drop = 0 then t.drop
  else
    match Hashtbl.find_opt t.link_drop (src, dst) with
    | Some p -> t.drop +. p
    | None -> t.drop

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
let[@inline] egress_delay t src size =
  if t.bandwidth = infinity then 0.0
  else begin
    let now = Engine.now t.engine in
    let f = Cells.get t.egress_free_at src in
    let free_at = if f > now then f else now in
    let ser = float_of_int size /. t.bandwidth in
    Cells.set t.egress_free_at src (free_at +. ser);
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
  let row = Links.row last env.src in
  let prev = Cells.get row env.dst in
  let arrival = if prev >= arrival then prev +. 1e-9 else arrival in
  Cells.set row env.dst arrival;
  schedule_arrival t ~delay:(arrival -. now) env

(* The sender's uplink is non-preemptive: the message on the wire
   finishes, then every queued control message goes before the oldest
   waiting bulk copy.  Control messages reserve the uplink at send time
   ({!egress_delay}), so a pump that finds it reserved past now simply
   comes back when it frees. *)
let rec pump t src backlog =
  let now = Engine.now t.engine in
  let f = Cells.get t.egress_free_at src in
  if f > now then
    ignore (Engine.at t.engine ~time:f (fun () -> pump t src backlog))
  else
    match Queue.take_opt backlog with
    | None -> ()
    | Some w ->
      let ser = float_of_int w.size /. t.bandwidth in
      let free_at = now +. ser in
      Cells.set t.egress_free_at src free_at;
      depart t t.last_bulk_arrival ~delay:(ser +. w.latency) w.env;
      if not (Queue.is_empty backlog) then
        ignore
          (Engine.at t.engine ~time:free_at (fun () -> pump t src backlog))

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

(* The per-tag (sent, bytes) cells of a payload, resolved once per
   logical send: [broadcast] shares them across its whole fan-out, so a
   payload sent to n peers is sized and tagged once, not n times.  With
   no [tagger] they are a pair of cells no registry reads. *)
let channel t payload =
  match t.tagger with
  | Some tag -> tag_handles t (tag payload)
  | None -> t.untagged

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
  let sent, bytes = chan in
  sent := !sent + 1;
  bytes := !bytes + size;
  if t.mode = `Enumerate then
    enqueue t ~src ~dst ~bulk:(is_bulk t payload) payload
  else begin
  let env = { src; dst; payload } in
  if Node_id.Set.mem src t.crashed then t.c_dropped := !(t.c_dropped) + 1
  else if not (connected t src dst) then t.c_dropped := !(t.c_dropped) + 1
  else begin
    if Rng.bernoulli t.rng (drop_prob t src dst) then
      t.c_dropped := !(t.c_dropped) + 1
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
  let size = t.sizer payload in
  transmit t ~src ~dst ~size ~chan:(channel t payload) payload

let broadcast t ~src ~dsts payload =
  match dsts with
  | [] -> ()
  | dsts ->
    let size = t.sizer payload in
    let chan = channel t payload in
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
