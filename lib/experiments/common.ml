module Engine = Rsmr_sim.Engine
module Timeseries = Rsmr_sim.Timeseries
module Node_id = Rsmr_net.Node_id
module Options = Rsmr_core.Options
module Driver = Rsmr_workload.Driver
module KvCore = Rsmr_core.Service.Make (Rsmr_app.Kv)
module KvCoreVr = Rsmr_core.Service.Make_on (Rsmr_smr.Vr) (Rsmr_app.Kv)
module KvRaft = Rsmr_baselines.Raft.Make (Rsmr_app.Kv)

module Strategy = Rsmr_iface.Reconfig_strategy

type proto =
  | Core
  | Matchmaker
  | Core_vr
  | Core_nospec
  | Core_noresidual
  | Stopworld
  | Raft

let proto_name = function
  | Core -> "core"
  | Matchmaker -> "matchmaker"
  | Core_vr -> "core/vr"
  | Core_nospec -> "core-nospec"
  | Core_noresidual -> "core-noresid"
  | Stopworld -> "stopworld"
  | Raft -> "raft"

let all_protos =
  [ Core; Matchmaker; Core_vr; Core_nospec; Core_noresidual; Stopworld; Raft ]

(* Ablations are anonymous strategy records: the composed stages with one
   dial flipped — exactly what the strategy API is for. *)
let strategy_of = function
  | Core | Core_vr -> Strategy.composed
  | Raft -> Strategy.raft
  | Matchmaker -> Strategy.matchmaker
  | Core_nospec ->
    { Strategy.composed with
      Strategy.name = "composed-nospec";
      aliases = [];
      handoff = `Blocking
    }
  | Core_noresidual ->
    { Strategy.composed with
      Strategy.name = "composed-noresid";
      aliases = [];
      residuals = `Client_retry
    }
  | Stopworld -> Strategy.stopworld

type setup = {
  engine : Engine.t;
  cluster : Rsmr_iface.Cluster.t;
  leader : unit -> Node_id.t option;
}

let core_options proto =
  { Options.default with Options.strategy = strategy_of proto }

let make ?(seed = 1) ?latency ?drop ?bandwidth proto ~members ~universe =
  let engine = Engine.create ~seed () in
  match proto with
  | Core | Matchmaker | Core_nospec | Core_noresidual | Stopworld ->
    (* Stopworld is the core composition with both overlap optimizations
       disabled: a strategy value, not a separate stack. *)
    let svc =
      KvCore.create ~engine ?latency ?drop ?bandwidth
        ~options:(core_options proto) ~universe ~members ()
    in
    let cluster =
      { (KvCore.cluster svc) with Rsmr_iface.Cluster.name = proto_name proto }
    in
    {
      engine;
      cluster;
      leader = (fun () -> KvCore.current_leader svc);
    }
  | Core_vr ->
    let svc =
      KvCoreVr.create ~engine ?latency ?drop ?bandwidth
        ~options:(core_options proto) ~universe ~members ()
    in
    let cluster =
      { (KvCoreVr.cluster svc) with Rsmr_iface.Cluster.name = proto_name proto }
    in
    {
      engine;
      cluster;
      leader = (fun () -> KvCoreVr.current_leader svc);
    }
  | Raft ->
    let svc = KvRaft.create ~engine ?latency ?drop ?bandwidth ~universe ~members () in
    {
      engine;
      cluster = KvRaft.cluster svc;
      leader = (fun () -> KvRaft.leader svc);
    }

let run_to setup time = Engine.run ~until:time setup.engine

let wait_for_live setup ~target ~deadline =
  let target = List.sort_uniq Node_id.compare target in
  let live () =
    List.sort_uniq Node_id.compare (setup.cluster.Rsmr_iface.Cluster.members ())
    = target
    && (match setup.leader () with
        | Some l -> List.exists (Node_id.equal l) target
        | None -> false)
  in
  let rec loop horizon =
    Engine.run ~until:horizon setup.engine;
    if live () then Some (Engine.now setup.engine)
    else if horizon >= deadline then None
    else loop (horizon +. 0.02)
  in
  loop (Engine.now setup.engine +. 0.02)

let downtime (stats : Driver.stats) ~from_ ~window =
  match
    Timeseries.max_in_window stats.Driver.completions ~lo:from_
      ~hi:(from_ +. window)
  with
  | Some v -> v
  | None -> Float.nan

let default_universe n = List.init n Fun.id
