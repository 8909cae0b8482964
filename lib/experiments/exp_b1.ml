(* B1 — Leader-side batching ablation in the static building block.
   One Accept_multi per flush window instead of one Accept broadcast per
   command: messages per command drop with the window; median latency pays
   about half the window.  Exercises the knob composed services inherit
   through ?smr_params. *)

module Rng = Rsmr_sim.Rng
module Engine = Rsmr_sim.Engine
module Histogram = Rsmr_sim.Histogram
module Counters = Rsmr_sim.Counters
module Params = Rsmr_smr.Params
module Keys = Rsmr_workload.Keys
module Kv_gen = Rsmr_workload.Kv_gen
module Driver = Rsmr_workload.Driver
module Protocol = Rsmr_protocol.Protocol

let id = "B1"
let title = "Batching ablation: window vs messages/command vs latency"

let run_one ~batch_delay ~rate ~duration =
  let engine = Engine.create ~seed:51 () in
  let params = { Params.default with Params.batch_delay } in
  let members = [ 0; 1; 2 ] in
  let cluster =
    (Common.Kv_protocol.create ~engine ~smr_params:params Protocol.core
       ~members ~universe:members)
      .Common.Kv_protocol.cluster
  in
  let rng = Rng.split (Engine.rng engine) in
  let gen = Kv_gen.create ~rng ~keys:(Keys.uniform ~n:1_000) ~read_ratio:0.5 () in
  (* Warm up the leader, then snapshot counters around the loaded window. *)
  Engine.run ~until:1.0 engine;
  let net = Rsmr_obs.Registry.counters cluster.Rsmr_iface.Cluster.obs "net" in
  let m0 = Counters.get net "sent" in
  let stats =
    Driver.run_open ~cluster ~n_clients:16 ~first_client_id:100
      ~gen:(fun ~client:_ ~seq:_ -> Kv_gen.next gen)
      ~rate ~start:1.0 ~duration ()
  in
  Engine.run ~until:(1.0 +. duration +. 3.0) engine;
  let m1 = Counters.get net "sent" in
  let msgs_per_cmd =
    float_of_int (m1 - m0) /. float_of_int (max 1 stats.Driver.completed)
  in
  ( float_of_int stats.Driver.completed /. duration,
    msgs_per_cmd,
    Histogram.percentile stats.Driver.latency 50.0,
    Histogram.percentile stats.Driver.latency 99.0 )

let run ?(quick = false) () =
  let duration = if quick then 2.0 else 5.0 in
  let rate = 2000.0 in
  let windows = [ 0.0; 0.001; 0.002; 0.005 ] in
  let rows =
    List.map
      (fun batch_delay ->
        let thr, mpc, p50, p99 = run_one ~batch_delay ~rate ~duration in
        [
          (if batch_delay = 0.0 then "off"
           else Printf.sprintf "%.0fms" (batch_delay *. 1e3));
          Table.cell_f thr;
          Table.cell_f mpc;
          Table.cell_ms p50;
          Table.cell_ms p99;
        ])
      windows
  in
  Table.make ~id ~title
    ~headers:[ "window"; "goodput/s"; "msgs/cmd"; "p50"; "p99" ]
    ~notes:
      [
        "core service over batched Multi-Paxos; open loop 2000 req/s, 3 \
         replicas (message count includes client and heartbeat traffic)";
        "expected shape: msgs/cmd falls toward the floor as the window \
         grows; p50 rises by ~ half the window";
      ]
    rows

let experiment = { Table.id; title; run }
