(* F5 — Ablation of the paper's two composition-layer mechanisms:
   speculative handoff and residual re-submission. *)

module Rng = Rsmr_sim.Rng
module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Keys = Rsmr_workload.Keys
module Kv_gen = Rsmr_workload.Kv_gen
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule
module Protocol = Rsmr_protocol.Protocol

let id = "F5"
let title = "Ablation: speculative handoff x residual re-submission"

module Strategy = Rsmr_iface.Reconfig_strategy

(* Each ablation cell is an anonymous strategy: the composed stages with
   the speculation / residual dials set per-variant. *)
let run_one ~speculative ~residual ~n_keys =
  let strategy =
    {
      Strategy.composed with
      Strategy.name =
        Printf.sprintf "ablate-%c%c"
          (if speculative then 's' else '-')
          (if residual then 'r' else '-');
      handoff = (if speculative then `Speculative else `Blocking);
      residuals = (if residual then `Resubmit else `Client_retry);
    }
  in
  let proto =
    { Protocol.name = strategy.Strategy.name;
      aliases = [];
      kind = Protocol.Composed { block = Protocol.Paxos; strategy }
    }
  in
  let setup =
    Common.make ~seed:41 ~bandwidth:5e6 proto ~members:[ 0; 1; 2 ]
      ~universe:(Common.default_universe 6)
  in
  let engine = setup.Common.engine and cluster = setup.Common.cluster in
  Driver.preload ~cluster ~client:99
    ~commands:(Kv_gen.preload_commands ~n_keys ~value_size:100)
    ~deadline:200.0 ();
  let t0 = Engine.now engine in
  let rng = Rng.split (Engine.rng engine) in
  let gen = Kv_gen.create ~rng ~keys:(Keys.uniform ~n:n_keys) ~read_ratio:0.5 () in
  let stats =
    Driver.run_closed ~cluster ~n_clients:6 ~first_client_id:100
      ~gen:(fun ~client:_ ~seq:_ -> Kv_gen.next gen)
      ~start:(t0 +. 0.5) ~duration:20.0 ()
  in
  let t_rc = t0 +. 2.0 in
  Schedule.reconfigure_at cluster ~time:t_rc [ 3; 4; 5 ];
  Engine.run ~until:(t_rc +. 30.0) engine;
  let svc = Rsmr_obs.Registry.counters cluster.Rsmr_iface.Cluster.obs "svc" in
  let outage = Common.downtime stats ~from_:t_rc ~window:25.0 in
  let thr = float_of_int stats.Driver.completed /. 20.0 in
  ( outage,
    thr,
    Counters.get svc "residuals",
    Counters.get svc "residuals_resubmitted" )

let run ?(quick = false) () =
  let n_keys = if quick then 9_000 else 36_000 in
  let variants =
    [ (true, true); (true, false); (false, true); (false, false) ]
  in
  let rows =
    List.map
      (fun (speculative, residual) ->
        let outage, thr, residuals, resubmitted =
          run_one ~speculative ~residual ~n_keys
        in
        [
          (if speculative then "on" else "off");
          (if residual then "on" else "off");
          Table.cell_ms outage;
          Table.cell_f thr;
          string_of_int residuals;
          string_of_int resubmitted;
        ])
      variants
  in
  Table.make ~id ~title
    ~headers:
      [ "speculation"; "residual"; "outage"; "txn/s"; "residuals"; "resubmitted" ]
    ~notes:
      [
        Printf.sprintf
          "%d keys x 100B; fleet replacement at t=2s under 6-client load" n_keys;
        "expected shape: both handoffs wait out a transfer, with no \
         election on top (every instance boots with a leader); with \
         speculation the new leader executes once its own snapshot lands, \
         without it nothing commits until a majority of the new members \
         hold theirs, so speculation helps only when those transfers end \
         apart; residual re-submission converts residual commands' \
         client-timeout retries into immediate completions";
      ]
    rows
