(* T4 — Block interchangeability: the composition layer over two completely
   different static SMR building blocks (Multi-Paxos vs Viewstamped
   Replication), same workload, same reconfiguration.  The paper's
   black-box claim, quantified: the composed service behaves equivalently;
   differences (VR's larger view-change messages, its election-free view-0
   start) belong to the block, not the layer. *)

module Protocol = Rsmr_protocol.Protocol
module Histogram = Rsmr_sim.Histogram
module Counters = Rsmr_sim.Counters
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule

let id = "T4"
let title = "Block interchangeability: composition over Multi-Paxos vs VR"

let run_one proto ~duration =
  let members = [ 0; 1; 2 ] and universe = Common.default_universe 6 in
  let setup = Common.make ~seed:43 proto ~members ~universe in
  let t0, stats =
    Driver.kv_closed ~cluster:setup.Common.cluster ~n_keys:2_000
      ~preload_deadline:120.0 ~read_ratio:0.5 ~n_clients:6 ~duration ()
  in
  let t_rc = t0 +. (duration /. 2.0) in
  Schedule.reconfigure_at setup.Common.cluster ~time:t_rc [ 3; 4; 5 ];
  Common.run_to setup (t0 +. duration +. 10.0);
  let thr = float_of_int stats.Driver.completed /. duration in
  let outage = Common.downtime stats ~from_:t_rc ~window:10.0 in
  let net =
    Rsmr_obs.Registry.counters setup.Common.cluster.Rsmr_iface.Cluster.obs
      "net"
  in
  let bytes_per_cmd =
    float_of_int (Counters.get net "bytes_sent")
    /. float_of_int (max 1 stats.Driver.completed)
  in
  ( thr,
    Histogram.percentile stats.Driver.latency 50.0,
    outage,
    bytes_per_cmd,
    Counters.get
      (Rsmr_obs.Registry.counters setup.Common.cluster.Rsmr_iface.Cluster.obs
         "svc")
      "wedges" )

let run ?(quick = false) () =
  let duration = if quick then 4.0 else 12.0 in
  let rows =
    List.map
      (fun proto ->
        let thr, p50, outage, bpc, wedges = run_one proto ~duration in
        [
          proto.Protocol.name;
          Table.cell_f thr;
          Table.cell_ms p50;
          Table.cell_ms outage;
          Table.cell_f bpc;
          string_of_int wedges;
        ])
      [ Protocol.core; Protocol.core_vr ]
  in
  Table.make ~id ~title
    ~headers:[ "block"; "txn/s"; "p50"; "reconf outage"; "bytes/txn"; "wedges" ]
    ~notes:
      [
        "identical workload and fleet replacement, only the building block \
         differs; 2k keys preloaded";
        "expected shape: near-identical service behaviour — the composition \
         layer cannot tell the blocks apart; small cost differences belong \
         to the blocks themselves";
      ]
    rows

let experiment = { Table.id; title; run }
