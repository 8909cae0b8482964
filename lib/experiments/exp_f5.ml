(* F5 — Ablation of the paper's two composition-layer mechanisms:
   speculative handoff and residual re-submission. *)

module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule
module Protocol = Rsmr_protocol.Protocol

let id = "F5"
let title = "Ablation: speculative handoff x residual re-submission"

module Strategy = Rsmr_iface.Reconfig_strategy

(* The four cells are the protocol table's Multi-Paxos stacks that differ
   only in the speculation / residual dials. *)
let protos = Protocol.[ core; core_noresid; core_nospec; stopworld ]

let dials proto =
  match proto.Protocol.kind with
  | Protocol.Composed { strategy; _ } ->
    ( strategy.Strategy.handoff = `Speculative,
      strategy.Strategy.residuals = `Resubmit )
  | Protocol.Raft -> invalid_arg "F5: raft has no composition dials"

let run_one proto ~n_keys =
  let setup =
    Common.make ~seed:41 ~bandwidth:5e6 proto ~members:[ 0; 1; 2 ]
      ~universe:(Common.default_universe 6)
  in
  let engine = setup.Common.engine and cluster = setup.Common.cluster in
  let t0, stats =
    Driver.kv_closed ~cluster ~n_keys ~preload_deadline:200.0 ~read_ratio:0.5
      ~n_clients:6 ~duration:20.0 ()
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
  let on b = if b then "on" else "off" in
  let rows =
    List.map
      (fun proto ->
        let speculative, residual = dials proto in
        let outage, thr, residuals, resubmitted = run_one proto ~n_keys in
        [
          on speculative;
          on residual;
          Table.cell_ms outage;
          Table.cell_f thr;
          string_of_int residuals;
          string_of_int resubmitted;
        ])
      protos
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

let experiment = { Table.id; title; run }
