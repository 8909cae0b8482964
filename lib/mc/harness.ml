module Engine = Rsmr_sim.Engine
module Fnv = Rsmr_sim.Fnv
module Stable = Rsmr_sim.Stable
module Network = Rsmr_net.Network
module Options = Rsmr_core.Options
module Service = Rsmr_core.Service
module Counter = Rsmr_app.Counter
module Protocol = Rsmr_protocol.Protocol
module Counter_protocol = Protocol.Make (Counter)

exception Divergent of Choice.t
(** A stored choice did not apply — the replayed path diverged from the
    state it was recorded against.  Determinism makes this unreachable
    for faithfully stored traces; reaching it is a bug. *)

let client_id = 1000

type t = {
  scope : Scope.t;
  (* the composed service under check, seen through the four views
     exploration reads *)
  net : Rsmr_core.Wire.t Network.t;
  canonical_state : unit -> string;
  epoch_stats : int -> Service.epoch_stat list;
  app_state : int -> Counter.t option;
  cluster : Rsmr_iface.Cluster.t;
  engine : Engine.t;
  (* budget cursors — exploration state, fingerprinted alongside the
     system state because they gate which choices are enabled *)
  mutable commands_used : int;
  mutable reconfigs_used : int;
  mutable crashes_used : int;
  mutable drops_used : int;
  mutable timers_used : int;
  mutable crashed : int list; (* sorted *)
  (* oracle accumulators *)
  replies : (int, string) Hashtbl.t; (* client seq -> response bytes *)
  witness : (int * int, int64) Hashtbl.t;
      (* (epoch, applied_hi) -> applied digest, first seen on this path;
         committed-prefix agreement says it never changes *)
  mutable violation : string option;
}

let violation t = t.violation

let options ~strategy ~scope ~mutation =
  let base = { Options.default with Options.strategy } in
  (* Client coalescing follows the scope's batch key: the presets check
     the immediate-send configuration; batch >= 2 pulls the coalescing
     window (flush forced by a full buffer, not by wall-clock) into the
     explored space. *)
  let base =
    if scope.Scope.batch >= 2 then
      {
        base with
        Options.client_batch_window = 0.0005;
        client_batch_max = scope.Scope.batch;
      }
    else { base with Options.client_batch_window = 0.0 }
  in
  { base with Options.mutation }

(* Virtual-time parameters tuned for exploration, not for realism: the
   election timer must be the earliest-due timer so a leader exists
   within a few choices of the initial state (with the default 100ms
   timeout the interesting behaviour sits under dozens of client-retry
   timer fires and out of reach of any exhaustible depth).  Periodic
   timers are slowed so they widen the state space only where the
   in-flight bound allows. *)
let mc_params ~scope =
  let base =
    {
      Rsmr_smr.Params.default with
      Rsmr_smr.Params.election_timeout_min = 0.001;
      election_timeout_max = 0.001;
      heartbeat_interval = 0.05;
    }
  in
  (* The presets check the historical unbatched block configuration;
     batch >= 2 bounds the proposal window at the scope's width instead. *)
  if scope.Scope.batch >= 2 then
    { base with Rsmr_smr.Params.batch_max = scope.Scope.batch }
  else { base with Rsmr_smr.Params.batch_delay = 0.0 }

let create ~proto ~scope ~mutation () =
  let block, strategy =
    match proto.Protocol.kind with
    | Protocol.Composed { block; strategy } -> (block, strategy)
    | Protocol.Raft -> invalid_arg "Harness.create: raft is not composed"
  in
  let (module S) = Counter_protocol.service block in
  let engine = Engine.create ~seed:7 () in
  let svc =
    S.create ~engine ~smr_params:(mc_params ~scope)
      ~options:(options ~strategy ~scope ~mutation)
      ~universe:(Scope.universe scope) ~net_mode:`Enumerate
      ~members:(Scope.initial_members scope) ()
  in
  let cluster = S.cluster svc in
  cluster.Rsmr_iface.Cluster.add_client client_id;
  let t =
    {
      scope;
      net = S.net svc;
      canonical_state = (fun () -> S.canonical_state svc);
      epoch_stats = S.epoch_stats svc;
      app_state = S.app_state svc;
      cluster;
      engine;
      commands_used = 0;
      reconfigs_used = 0;
      crashes_used = 0;
      drops_used = 0;
      timers_used = 0;
      crashed = [];
      replies = Hashtbl.create 8;
      witness = Hashtbl.create 32;
      violation = None;
    }
  in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client ~seq ~rsp ->
      if client = client_id then
        match Hashtbl.find_opt t.replies seq with
        | None -> Hashtbl.add t.replies seq rsp
        | Some prev ->
          if not (String.equal prev rsp) then
            t.violation <-
              Some
                (Printf.sprintf
                   "exactly-once: client saw two different responses for \
                    seq %d (%S then %S)"
                   seq prev rsp));
  t

(* --- per-state safety properties (the crucible Oracle invariants,
   re-phrased as predicates on a single reachable state) --- *)

let check_properties t =
  let nodes = Scope.universe t.scope in
  let stats = List.map (fun n -> (n, t.epoch_stats n)) nodes in
  (* path-wide committed-prefix agreement: the (epoch, applied_hi) ->
     digest map is a function across every state of this path (the digest
     of a given prefix never rewrites); {!Service.epoch_audit} checks it
     across the nodes of this one state *)
  let committed_prefix () =
    List.find_map
      (fun (n, es) ->
        List.find_map
          (fun (s : Service.epoch_stat) ->
            if s.Service.es_applied_hi < 0 then None
            else
              let key = (s.Service.es_epoch, s.Service.es_applied_hi) in
              match Hashtbl.find_opt t.witness key with
              | None ->
                Hashtbl.add t.witness key s.Service.es_digest;
                None
              | Some d0 when not (Int64.equal d0 s.Service.es_digest) ->
                Some
                  (Printf.sprintf
                     "committed-prefix: node %d epoch %d disagrees on the \
                      prefix up to index %d (digest %s, witnessed %s)"
                     n s.Service.es_epoch s.Service.es_applied_hi
                     (Fnv.to_hex s.Service.es_digest)
                     (Fnv.to_hex d0))
              | Some _ -> None)
          es)
      stats
  in
  (* exactly-once arithmetic: every command is Incr 1, so no replica's
     counter may exceed the number of distinct commands submitted *)
  let exactly_once () =
    List.find_map
      (fun n ->
        match t.app_state n with
        | None -> None
        | Some app ->
          let v = Counter.value app in
          if v > t.commands_used then
            Some
              (Printf.sprintf
                 "exactly-once: node %d counter reached %d with only %d \
                  commands submitted"
                 n v t.commands_used)
          else None)
      nodes
  in
  match Service.epoch_audit stats with
  | Some v -> Some v
  | None -> (
    match committed_prefix () with
    | Some v -> Some v
    | None -> exactly_once ())

let observe t =
  if t.violation = None then t.violation <- check_properties t

(* --- choices --- *)

(* Timer choices are semantically enabled only while the in-flight
   bound holds (periodic traffic must not grow queues without end) and
   the fire budget lasts.  This is part of the scope's definition, so
   the reduction below may key off it. *)
let timers_on t =
  t.timers_used < t.scope.Scope.timer_fires
  && Network.pending_total t.net < t.scope.Scope.max_inflight

(* Partial-order reduction.  Deliveries to distinct destination nodes
   are independent: each pops its own link-and-class FIFO, mutates only the
   destination's components, and appends to the destination's outgoing
   queues — so both orders of two such deliveries reach the same state,
   and every safety property checked here latches monotonically under
   further deliveries to OTHER nodes (wedge points and applied indices
   never retreat, counters never shrink, witnesses never un-conflict).
   It is therefore sound to expand only the deliveries into ONE such
   destination and defer the rest, as long as no enabled choice could
   interfere with that node: crash/recover choices (they race with
   delivery into the crashed node) and timer fires (their owning node is
   opaque) disable the reduction, and client/admin endpoints are never
   chosen because scripted submissions touch them.  The reduction
   therefore bites exactly at the delivery-storm states where timers are
   already out of play — which is where the interleaving explosion
   lives. *)
let por_target t =
  if timers_on t || t.crashed <> [] || t.crashes_used < t.scope.Scope.crashes
  then None
  else begin
    let top = t.scope.Scope.nodes + t.scope.Scope.spare in
    (* universe nodes and the directory (top + 1) host only
       message-driven protocol components *)
    let protocol_dst d = d <= top + 1 in
    List.fold_left
      (fun acc (_, dst, _) ->
        if protocol_dst dst then
          match acc with
          | Some m when m <= dst -> acc
          | _ -> Some dst
        else acc)
      None
      (Network.links t.net)
  end

let enabled t =
  if t.violation <> None then []
  else begin
    let acc = ref [] in
    let push c = acc := c :: !acc in
    let links = Network.links t.net in
    let link_choices ls =
      List.iter
        (fun (src, dst, bulk) ->
          if t.drops_used < t.scope.Scope.drops then
            push (Choice.Drop { src; dst; bulk });
          push (Choice.Deliver { src; dst; bulk }))
        (List.rev ls)
    in
    (match por_target t with
    | Some target ->
      link_choices (List.filter (fun (_, dst, _) -> dst = target) links)
    | None ->
      (* full expansion *)
      (* timers: the [timer_width] earliest-due pending timers *)
      if timers_on t then begin
        let rec take k = function
          | (seq, _) :: rest when k > 0 ->
            push (Choice.Timer { seq });
            take (k - 1) rest
          | _ -> ()
        in
        take t.scope.Scope.timer_width (Engine.enabled t.engine)
      end;
      (* per-link message choices, sorted link order *)
      link_choices links;
      (* fault choices *)
      List.iter
        (fun n ->
          if List.mem n t.crashed then push (Choice.Recover n)
          else if t.crashes_used < t.scope.Scope.crashes then
            push (Choice.Crash n))
        (List.rev (Scope.universe t.scope));
      (* workload choices, submitted strictly in script order *)
      if t.reconfigs_used < t.scope.Scope.reconfigs then
        push (Choice.Reconfig { r = t.reconfigs_used });
      if t.commands_used < t.scope.Scope.commands then
        push (Choice.Client_op { op = t.commands_used }));
    !acc
  end

let incr_cmd = Counter.encode_command (Counter.Incr 1)

let apply t choice =
  (match choice with
   | Choice.Timer { seq } ->
     if not (Engine.fire t.engine ~seq) then raise (Divergent choice);
     t.timers_used <- t.timers_used + 1
   | Choice.Deliver { src; dst; bulk } -> (
     match Network.deliver_head t.net ~src ~dst ~bulk with
     | Some _ -> ()
     | None -> raise (Divergent choice))
   | Choice.Drop { src; dst; bulk } -> (
     match Network.drop_head t.net ~src ~dst ~bulk with
     | Some _ -> t.drops_used <- t.drops_used + 1
     | None -> raise (Divergent choice))
   | Choice.Crash n ->
     if List.mem n t.crashed then raise (Divergent choice);
     Rsmr_iface.Overlay.crash t.cluster.Rsmr_iface.Cluster.control n;
     t.crashed <- List.sort Int.compare (n :: t.crashed);
     t.crashes_used <- t.crashes_used + 1
   | Choice.Recover n ->
     if not (List.mem n t.crashed) then raise (Divergent choice);
     Rsmr_iface.Overlay.recover t.cluster.Rsmr_iface.Cluster.control n;
     t.crashed <- List.filter (fun m -> m <> n) t.crashed
   | Choice.Client_op { op } ->
     if op <> t.commands_used then raise (Divergent choice);
     t.commands_used <- t.commands_used + 1;
     t.cluster.Rsmr_iface.Cluster.submit ~client:client_id ~seq:(op + 1)
       ~cmd:incr_cmd
   | Choice.Reconfig { r } ->
     if r <> t.reconfigs_used then raise (Divergent choice);
     t.reconfigs_used <- t.reconfigs_used + 1;
     Rsmr_iface.Overlay.reconfigure t.cluster.Rsmr_iface.Cluster.control
       (Scope.reconfig_members t.scope r));
  observe t

let replay ~proto ~scope ~mutation choices =
  let t = create ~proto ~scope ~mutation () in
  observe t;
  List.iter (fun c -> if t.violation = None then apply t c) choices;
  t

(* --- coverage --- *)

type coverage = {
  cov_wedged : bool;  (* some instance wedged (reconfig decided) *)
  cov_activated : bool;  (* some epoch >= 1 instance activated *)
  cov_retired : bool;  (* some instance retired *)
  cov_replies : int;  (* client replies received *)
  cov_max_counter : int;  (* highest counter value on any replica *)
}

let coverage_empty =
  {
    cov_wedged = false;
    cov_activated = false;
    cov_retired = false;
    cov_replies = 0;
    cov_max_counter = 0;
  }

let coverage_union a b =
  {
    cov_wedged = a.cov_wedged || b.cov_wedged;
    cov_activated = a.cov_activated || b.cov_activated;
    cov_retired = a.cov_retired || b.cov_retired;
    cov_replies = max a.cov_replies b.cov_replies;
    cov_max_counter = max a.cov_max_counter b.cov_max_counter;
  }

let coverage t =
  let c = ref { coverage_empty with cov_replies = Hashtbl.length t.replies } in
  List.iter
    (fun n ->
      List.iter
        (fun (s : Service.epoch_stat) ->
          c :=
            {
              !c with
              cov_wedged = !c.cov_wedged || s.Service.es_wedged_at <> None;
              cov_activated =
                !c.cov_activated
                || (s.Service.es_epoch >= 1 && s.Service.es_activated);
              cov_retired = !c.cov_retired || s.Service.es_retired;
            })
        (t.epoch_stats n);
      match t.app_state n with
      | Some app ->
        c := { !c with cov_max_counter = max !c.cov_max_counter (Counter.value app) }
      | None -> ())
    (Scope.universe t.scope);
  !c

(* --- fingerprinting --- *)

let fingerprint t =
  let replies =
    String.concat ";"
      (List.rev
         (Stable.fold_sorted ~compare:Int.compare
            (fun seq rsp acc ->
              (string_of_int seq ^ "=" ^ Fnv.to_hex (Fnv.hash rsp)) :: acc)
            t.replies []))
  in
  Fingerprint.of_kv
    [
      ("svc", t.canonical_state ());
      ("timers", string_of_int (Engine.pending_count t.engine));
      ( "budgets",
        Printf.sprintf "%d,%d,%d,%d,%d" t.commands_used t.reconfigs_used
          t.crashes_used t.drops_used t.timers_used );
      ("crashed", String.concat "," (List.map string_of_int t.crashed));
      ("replies", replies);
      ("violation", Option.value t.violation ~default:"");
    ]

(* --- trace rendering --- *)

let summary t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "t=%.4fs inflight=%d timers=%d" (Engine.now t.engine)
       (Network.pending_total t.net)
       (Engine.pending_count t.engine));
  List.iter
    (fun n ->
      let es = t.epoch_stats n in
      if es <> [] then begin
        Buffer.add_string b (Printf.sprintf "\n  node %d:" n);
        List.iter
          (fun (s : Service.epoch_stat) ->
            Buffer.add_string b
              (Printf.sprintf " e%d[%s%s hi=%d%s]" s.Service.es_epoch
                 (if s.Service.es_activated then "act" else "spec")
                 (if s.Service.es_retired then ",ret" else "")
                 s.Service.es_applied_hi
                 (match s.Service.es_wedged_at with
                  | Some w -> Printf.sprintf " w=%d" w
                  | None -> "")))
          es;
        match t.app_state n with
        | Some app ->
          Buffer.add_string b (Printf.sprintf " counter=%d" (Counter.value app))
        | None -> ()
      end)
    (Scope.universe t.scope);
  Buffer.contents b
