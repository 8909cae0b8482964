module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Driver = Rsmr_workload.Driver
module Keys = Rsmr_workload.Keys
module History = Rsmr_checker.History
module Cluster = Rsmr_iface.Cluster
module Overlay = Rsmr_iface.Overlay
module Service = Rsmr_core.Service
module Options = Rsmr_core.Options
module Register = Rsmr_app.Register
module Registry = Rsmr_obs.Registry
module Span = Rsmr_obs.Span
module Kv = Rsmr_app.Kv
module Counter = Rsmr_app.Counter
module Dir_app = Rsmr_app.Dir_app
module Platform = Rsmr_shard.Platform
module Keyspace = Rsmr_shard.Keyspace

module Protocol = Rsmr_protocol.Protocol
module Mixed_protocol = Protocol.Make (Mixed)

type chain = {
  name : string;
  members : int list;
  states : (int * string) list;
  epoch_stats : (int * Service.epoch_stat list) list;
}

type platform = {
  dir_regressions : int;
  rebalances : int;
  rebalances_done : int;
}

type report = {
  proto : Protocol.t;
  scenario : Scenario.t;
  history : History.t;
  submitted : int;
  completed : int;
  duplicates : int;
  acked_incr : int;
  quiesced : bool;
  converged : bool;
  chains : chain list;
  platform : platform option;
  counters : (string * int) list;
  spans : Span.summary;
  obs : Registry.t;
  events_executed : int;
  end_time : float;
}

let first_client_id = 1000
let workload_start = 0.2
let quiesce_grace = 30.0
let settle_grace = 10.0

let agrees c =
  match c.states with
  | [] -> false
  | (_, s) :: rest ->
    List.compare_lengths c.states c.members = 0
    && List.for_all (fun (_, s') -> String.equal s s') rest

let chain name ~hosts ~members ~snapshot ~stats =
  let members = List.sort_uniq Int.compare members in
  {
    name;
    members;
    states =
      List.filter_map
        (fun n -> Option.map (fun s -> (n, s)) (snapshot n))
        members;
    epoch_stats = List.map (fun n -> (n, stats n)) hosts;
  }

(* What the run loop drives: the stack's chains, how it takes a fault,
   the endgame repair, and its client load. *)
type stack = {
  cluster : Cluster.t;
  chains : unit -> chain list;
  apply : Scenario.fault -> unit;
  repair : unit -> unit;
  load : on_event:(Driver.event -> unit) -> Driver.stats;
  platform : unit -> platform option;
}

(* Small value domains keep the linearizability search cheap: 8 register
   values, 3 keys × 8 values, increments of 1–3. *)
let gen_of rng =
  let keys = [| "a"; "b"; "c" |] in
  let key () = keys.(Rng.int rng (Array.length keys)) in
  let value () = Printf.sprintf "v%d" (Rng.int rng 8) in
  fun ~client:_ ~seq:_ ->
    let cmd =
      match Rng.int rng 8 with
      | 0 -> Mixed.Reg Register.Read
      | 1 -> Mixed.Reg (Register.Write (Rng.int rng 8))
      | 2 -> Mixed.Reg (Register.Cas (Rng.int rng 8, Rng.int rng 8))
      | 3 -> Mixed.Kv (Kv.Get (key ()))
      | 4 -> Mixed.Kv (Kv.Put (key (), value ()))
      | 5 -> Mixed.Kv (Kv.Append (key (), value ()))
      | 6 -> Mixed.Cnt (Counter.Incr (1 + Rng.int rng 3))
      | _ -> Mixed.Cnt Counter.Read
    in
    Mixed.encode_command cmd

(* One service over Mixed.  Scenario partitions name replica-side groups
   only; clients, directory and admin ride along in every group so the
   workload keeps flowing to whichever side can serve it. *)
let service_stack ?mutation ~engine proto (sc : Scenario.t) ~members
    ~universe =
  let ms = Mixed_protocol.create ~engine ?mutation proto ~members ~universe in
  let rng = Rng.split (Engine.rng engine) in
  let cluster = ms.Mixed_protocol.cluster in
  let control = cluster.Cluster.control in
  let non_replica =
    ms.Mixed_protocol.service_ids
    @ List.init sc.Scenario.n_clients (fun i -> first_client_id + i)
  in
  let apply = function
    | Scenario.Crash n -> Overlay.crash control n
    | Scenario.Recover n -> Overlay.recover control n
    | Scenario.Partition groups ->
      Overlay.partition control (List.map (fun g -> g @ non_replica) groups)
    | Scenario.Heal -> Overlay.heal control
    | Scenario.Link_fault { src; dst; drop } ->
      ms.Mixed_protocol.set_link ~src ~dst ~drop
    | Scenario.Clear_links -> ms.Mixed_protocol.clear_links ()
    | Scenario.Duplicate p -> ms.Mixed_protocol.set_duplicate p
    | Scenario.Drop p -> ms.Mixed_protocol.set_drop p
    | Scenario.Reconfigure target -> Overlay.reconfigure control target
    | Scenario.Isolate_dir _ | Scenario.Rebalance _ -> ()
  in
  let repair () =
    Overlay.heal control;
    ms.Mixed_protocol.clear_links ();
    ms.Mixed_protocol.set_duplicate 0.0;
    ms.Mixed_protocol.set_drop 0.0;
    List.iter (fun n -> Overlay.recover control n) universe
  in
  let chains () =
    [
      chain "service" ~hosts:universe ~members:(cluster.Cluster.members ())
        ~snapshot:(fun n ->
          Option.map Mixed.snapshot (ms.Mixed_protocol.app_state n))
        ~stats:ms.Mixed_protocol.epoch_stats;
    ]
  in
  (* window=4 keeps each client's coalescing buffer fed, so the soak
     exercises Request_batch / multi-slot proposals under every fault
     the script throws, not just the single-command path. *)
  let load ~on_event =
    Driver.run_closed ~cluster ~n_clients:sc.Scenario.n_clients
      ~first_client_id ~gen:(gen_of rng) ~think:0.02 ~window:4 ~on_event
      ~start:workload_start ~duration:sc.Scenario.duration ()
  in
  { cluster; chains; apply; repair; load; platform = (fun () -> None) }

(* The registry's counter cells of one section as (name, count), sorted
   by name; a cell also labelled with a message type counts under
   [name.type]. *)
let section_counters obs section =
  List.filter_map
    (fun { Registry.f_name; f_labels; f_value } ->
      match f_labels with
      | [ ("section", s) ] when String.equal s section -> Some (f_name, f_value)
      | [ ("msg_type", m); ("section", s) ] when String.equal s section ->
        Some (f_name ^ "." ^ m, f_value)
      | _ -> None)
    (Registry.flat_counters obs)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The sharded platform over Kv: 1,000 zipfian keys, half Gets, two
   requests in flight per client.  The directory and every shard are
   epoch chains of their own. *)
let platform_stack ?mutation ~engine (proto : Protocol.t) (sc : Scenario.t)
    ~pool ~shards ~dir =
  let (module P : Platform.S), strategy =
    match proto.Protocol.kind with
    | Protocol.Composed { block = Protocol.Paxos; strategy } ->
      ((module Platform.Core), strategy)
    | Protocol.Composed { block = Protocol.Vr; strategy } ->
      ((module Platform.Vr), strategy)
    | Protocol.Raft ->
      invalid_arg "Runner.run: raft has no block to build a platform from"
  in
  let n_keys = 1000 in
  let pf =
    P.create ~engine ~latency:Rsmr_net.Latency.lan
      ~options:{ Options.default with Options.strategy; mutation }
      ~pool ~shards ~dir_members:dir
      ~keyspace:(Keyspace.ranges ~shards:(List.length shards) ~n_keys)
      ()
  in
  let rng = Rng.split (Engine.rng engine) in
  let control = P.control pf in
  (* The node is drawn when the move starts: which nodes the donor can
     give depends on both shards' membership at that moment. *)
  let rebalance from_ =
    let to_ = (from_ + 1) mod P.n_shards pf in
    let takers = P.shard_members pf to_ in
    match
      List.filter (fun n -> not (List.mem n takers)) (P.shard_members pf from_)
    with
    | [] -> ()
    | eligible -> P.rebalance pf ~node:(Rng.pick rng eligible) ~from_ ~to_ ()
  in
  let apply = function
    | Scenario.Crash n -> Overlay.crash control n
    | Scenario.Recover n -> Overlay.recover control n
    | Scenario.Heal -> Overlay.heal control
    | Scenario.Isolate_dir ns -> P.isolate_dir pf ns
    | Scenario.Rebalance from_ -> rebalance from_
    | Scenario.Partition _ | Scenario.Link_fault _ | Scenario.Clear_links
    | Scenario.Duplicate _ | Scenario.Drop _ | Scenario.Reconfigure _ -> ()
  in
  let repair () =
    List.iter (fun n -> Overlay.recover control n) pool;
    Overlay.heal control
  in
  let chains () =
    let d = P.dir pf in
    chain "directory" ~hosts:pool ~members:(P.Dir_svc.current_members d)
      ~snapshot:(fun n ->
        Option.map Dir_app.snapshot (P.Dir_svc.app_state d n))
      ~stats:(P.Dir_svc.epoch_stats d)
    :: List.init (P.n_shards pf) (fun s ->
           let sh = P.shard pf s in
           chain ("shard " ^ string_of_int s) ~hosts:pool
             ~members:(P.shard_members pf s)
             ~snapshot:(fun n ->
               Option.map Kv.snapshot (P.Shard_svc.app_state sh n))
             ~stats:(P.Shard_svc.epoch_stats sh))
  in
  let keys = Keys.zipf ~n:n_keys ~theta:0.8 in
  let key () = Keys.key_name (Keys.sample keys rng) in
  let gen ~client:_ ~seq:_ =
    if Rng.float rng 1.0 < 0.5 then Kv.encode_command (Kv.Get (key ()))
    else
      Kv.encode_command
        (Kv.Put (key (), Printf.sprintf "v%d" (Rng.int rng 1_000_000)))
  in
  let load ~on_event =
    Driver.run_closed ~cluster:(P.cluster pf) ~n_clients:sc.Scenario.n_clients
      ~first_client_id ~gen ~window:2 ~on_event ~start:workload_start
      ~duration:sc.Scenario.duration ()
  in
  let platform () =
    let shard = section_counters (P.obs pf) "shard" in
    let count name = Option.value (List.assoc_opt name shard) ~default:0 in
    Some
      {
        dir_regressions = P.dir_epoch_regressions pf;
        rebalances = count "rebalances";
        rebalances_done = count "rebalances_done";
      }
  in
  { cluster = P.cluster pf; chains; apply; repair; load; platform }

let run ?mutation proto (sc : Scenario.t) =
  let engine = Engine.create ~seed:sc.Scenario.seed () in
  (* [mixed]: only Mixed has a counter to add increments up in. *)
  let stack, mixed =
    match sc.Scenario.shape with
    | Scenario.Service { members; universe } ->
      (service_stack ?mutation ~engine proto sc ~members ~universe, true)
    | Scenario.Platform { pool; shards; dir } ->
      (platform_stack ?mutation ~engine proto sc ~pool ~shards ~dir, false)
  in
  let obs = stack.cluster.Cluster.obs in
  Registry.set_meta obs "seed" (string_of_int sc.Scenario.seed);
  (* Subscribe before the workload starts so every submit is observed. *)
  let coll = Span.collect (Registry.bus obs) in
  let t_end = workload_start +. sc.Scenario.duration +. 0.05 in
  (* The fault script, offsets relative to workload start. *)
  List.iter
    (fun { Scenario.at; fault } ->
      ignore
        (Engine.at engine ~time:(workload_start +. at) (fun () ->
             stack.apply fault)))
    sc.Scenario.events;
  (* Endgame: whatever the script left broken is repaired once the issue
     window closes, so every scenario eventually quiesces and the safety
     oracles judge a settled system. *)
  ignore (Engine.at engine ~time:t_end stack.repair);
  let history = History.create () in
  let acked_incr = ref 0 in
  let on_event (e : Driver.event) =
    History.add history
      {
        History.client = e.Driver.ev_client;
        cmd = e.Driver.ev_cmd;
        rsp = e.Driver.ev_rsp;
        invoked = e.Driver.ev_invoked;
        replied = e.Driver.ev_replied;
      };
    if mixed then
      Option.iter
        (fun n -> acked_incr := !acked_incr + n)
        (Mixed.incr_of_encoded e.Driver.ev_cmd)
  in
  let stats = stack.load ~on_event in
  (* Quiescence: past the endgame repair, every submitted command has a
     reply (clients retry forever, so a lost command shows up here). *)
  let quiesced =
    Engine.run_until engine
      ~pred:(fun () ->
        Engine.now engine > t_end
        && stats.Driver.completed >= stats.Driver.submitted)
      ~deadline:(t_end +. quiesce_grace)
    <> None
  in
  (* Convergence: in every chain, all members expose byte-identical
     application state, and still do half a virtual second later
     ({!Engine.settle}). *)
  let converged =
    quiesced
    && Engine.settle engine
         ~pred:(fun () -> List.for_all agrees (stack.chains ()))
         ~hold:0.5
         ~deadline:(Engine.now engine +. settle_grace)
  in
  let chains = stack.chains () in
  let span_list = Span.finalize coll in
  Span.record obs span_list;
  {
    proto;
    scenario = sc;
    history;
    submitted = stats.Driver.submitted;
    completed = stats.Driver.completed;
    duplicates = stats.Driver.duplicates;
    acked_incr = !acked_incr;
    quiesced;
    converged;
    chains;
    platform = stack.platform ();
    counters = section_counters obs "svc";
    spans = Span.summarize span_list;
    obs;
    events_executed = Engine.events_executed engine;
    end_time = Engine.now engine;
  }
