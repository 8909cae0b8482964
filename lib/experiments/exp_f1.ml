(* F1 — Steady-state throughput and latency vs cluster size.
   Baseline characterization: the composed service's static instance should
   track natively-built Raft, both degrading with quorum size. *)

module Protocol = Rsmr_protocol.Protocol
module Rng = Rsmr_sim.Rng
module Engine = Rsmr_sim.Engine
module Histogram = Rsmr_sim.Histogram
module Keys = Rsmr_workload.Keys
module Kv_gen = Rsmr_workload.Kv_gen
module Driver = Rsmr_workload.Driver

let id = "F1"
let title = "Throughput vs cluster size (no reconfiguration)"

let run_one proto ~n ~duration =
  let members = Common.default_universe n in
  let setup = Common.make ~seed:(7 + n) proto ~members ~universe:members in
  let rng = Rng.split (Engine.rng setup.Common.engine) in
  let gen = Kv_gen.create ~rng ~keys:(Keys.uniform ~n:1000) ~read_ratio:0.5 () in
  let stats =
    Driver.run_closed ~cluster:setup.Common.cluster ~n_clients:8
      ~first_client_id:100 ~window:16
      ~gen:(fun ~client:_ ~seq:_ -> Kv_gen.next gen)
      ~start:1.0 ~duration ()
  in
  Common.run_to setup (1.0 +. duration +. 2.0);
  let thr = float_of_int stats.Driver.completed /. duration in
  ( thr,
    Histogram.percentile stats.Driver.latency 50.0,
    Histogram.percentile stats.Driver.latency 99.0 )

let run ?(quick = false) () =
  let duration = if quick then 1.0 else 5.0 in
  let sizes = if quick then [ 3; 5 ] else [ 3; 5; 7; 9 ] in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun proto ->
            let thr, p50, p99 = run_one proto ~n ~duration in
            [
              string_of_int n;
              proto.Protocol.name;
              Table.cell_f thr;
              Table.cell_ms p50;
              Table.cell_ms p99;
            ])
          [ Protocol.core; Protocol.raft ])
      sizes
  in
  Table.make ~id ~title
    ~headers:[ "replicas"; "protocol"; "txn/s"; "p50"; "p99" ]
    ~notes:
      [
        "8 closed-loop clients x 16-deep windows, 50/50 read/write, LAN latency model";
        "expected shape: core ~ raft at every size; both fall as quorums grow";
      ]
    rows

let experiment = { Table.id; title; run }
