module Engine = Rsmr_sim.Engine
module Timeseries = Rsmr_sim.Timeseries
module Node_id = Rsmr_net.Node_id
module Driver = Rsmr_workload.Driver
module Protocol = Rsmr_protocol.Protocol
module Kv_protocol = Protocol.Make (Rsmr_app.Kv)

type setup = {
  engine : Engine.t;
  cluster : Rsmr_iface.Cluster.t;
  leader : unit -> Node_id.t option;
}

let make ?(seed = 1) ?latency ?drop ?bandwidth proto ~members ~universe =
  let engine = Engine.create ~seed () in
  let stack =
    Kv_protocol.create ~engine ?latency ?drop ?bandwidth proto ~members
      ~universe
  in
  { engine;
    cluster = stack.Kv_protocol.cluster;
    leader = stack.Kv_protocol.leader
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
