(* F4 — Latency percentiles vs offered load (open loop).
   The serving bottleneck in this simulation is the leader's egress link
   (there is no CPU model), so the knee is where per-command leader egress
   saturates the configured uplink. *)

module Protocol = Rsmr_protocol.Protocol
module Rng = Rsmr_sim.Rng
module Engine = Rsmr_sim.Engine
module Histogram = Rsmr_sim.Histogram
module Keys = Rsmr_workload.Keys
module Kv_gen = Rsmr_workload.Kv_gen
module Driver = Rsmr_workload.Driver

let id = "F4"
let title = "Latency vs offered load (open loop, core protocol)"
let bandwidth = 5e5 (* 4 Mb/s uplinks: saturates around 4k cmd/s *)

let run_one ~rate ~duration =
  let members = [ 0; 1; 2 ] in
  let setup =
    Common.make ~seed:37 ~bandwidth Protocol.core ~members ~universe:members
  in
  let rng = Rng.split (Engine.rng setup.Common.engine) in
  let gen = Kv_gen.create ~rng ~keys:(Keys.uniform ~n:1_000) ~read_ratio:0.5 () in
  let stats =
    Driver.run_open ~cluster:setup.Common.cluster ~n_clients:16
      ~first_client_id:100
      ~gen:(fun ~client:_ ~seq:_ -> Kv_gen.next gen)
      ~rate ~start:1.0 ~duration ()
  in
  Common.run_to setup (1.0 +. duration +. 5.0);
  let goodput = float_of_int stats.Driver.completed /. duration in
  ( goodput,
    Histogram.percentile stats.Driver.latency 50.0,
    Histogram.percentile stats.Driver.latency 99.0 )

let run ?(quick = false) () =
  let duration = if quick then 2.0 else 5.0 in
  let rates =
    if quick then [ 200.0; 1000.0 ]
    else [ 250.0; 500.0; 1000.0; 2000.0; 4000.0; 6000.0 ]
  in
  let rows =
    List.map
      (fun rate ->
        let goodput, p50, p99 = run_one ~rate ~duration in
        [
          Table.cell_f rate;
          Table.cell_f goodput;
          Table.cell_ms p50;
          Table.cell_ms p99;
        ])
      rates
  in
  Table.make ~id ~title
    ~headers:[ "offered req/s"; "goodput/s"; "p50"; "p99" ]
    ~notes:
      [
        "3 replicas; 4 Mb/s uplinks are the bottleneck resource";
        "expected shape: flat latency until the knee, then p99 explodes \
         first and goodput plateaus";
      ]
    rows

let experiment = { Table.id; title; run }
