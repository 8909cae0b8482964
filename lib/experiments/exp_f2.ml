(* F2 — Client-perceived latency timeline across one full-fleet
   reconfiguration {0,1,2} -> {3,4,5}.
   The paper's availability claim in one picture: with speculative handoff
   the blip is about the state transfer, since the new configuration's
   first member leads from boot; stop-the-world adds a client retry for
   its residual commands; Raft performs three add + three remove steps. *)

module Protocol = Rsmr_protocol.Protocol
module Timeseries = Rsmr_sim.Timeseries
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule

let id = "F2"
let title = "Latency timeline across one fleet replacement"
let reconfig_at = 5.0

let run_one proto ~n_keys ~bandwidth =
  let members = [ 0; 1; 2 ] and universe = Common.default_universe 6 in
  let setup = Common.make ~seed:11 ~bandwidth proto ~members ~universe in
  let t0, stats =
    Driver.kv_closed ~cluster:setup.Common.cluster ~n_keys
      ~preload_deadline:120.0 ~read_ratio:0.8 ~n_clients:6
      ~duration:(reconfig_at +. 5.0) ()
  in
  Schedule.reconfigure_at setup.Common.cluster ~time:(t0 +. reconfig_at)
    [ 3; 4; 5 ];
  Common.run_to setup (t0 +. reconfig_at +. 40.0);
  (t0, stats)

let run ?(quick = false) () =
  let n_keys = if quick then 1_000 else 10_000 in
  let bandwidth = 2.5e7 (* 200 Mb/s: makes the transfer cost visible *) in
  let protos = Protocol.[ core; matchmaker; stopworld; raft ] in
  let results =
    List.map (fun p -> (p, run_one p ~n_keys ~bandwidth)) protos
  in
  (* Timeline rows: max latency per 0.5 s bucket, relative to reconfig. *)
  let buckets = [ -1.0; -0.5; 0.0; 0.5; 1.0; 1.5; 2.0; 3.0; 4.0 ] in
  let timeline_rows =
    List.map
      (fun lo ->
        let cells =
          List.map
            (fun (_, (t0, stats)) ->
              let abs_lo = t0 +. reconfig_at +. lo in
              let width = if lo >= 2.0 then 1.0 else 0.5 in
              match
                Timeseries.max_in_window stats.Driver.completions ~lo:abs_lo
                  ~hi:(abs_lo +. width)
              with
              | Some v -> Table.cell_ms v
              | None -> "outage")
            results
        in
        Printf.sprintf "%+.1fs" lo :: cells)
      buckets
  in
  let summary =
    "max-over-run"
    :: List.map
         (fun (_, (t0, stats)) ->
           Table.cell_ms (Common.downtime stats ~from_:(t0 +. reconfig_at) ~window:30.0))
         results
  in
  Table.make ~id ~title
    ~headers:("t-reconfig" :: List.map (fun p -> p.Protocol.name) protos)
    ~notes:
      [
        Printf.sprintf
          "max client latency per bucket; %d keys x 100B preloaded; 200Mb/s uplinks"
          n_keys;
        "expected shape: core blip ~ one snapshot transfer and nothing on \
         top: no election (the new configuration's first member leads from \
         boot), and no late wedge (commit notices overtake the queued \
         chunks on the donor's uplink); matchmaker ~ core at these LAN \
         RTTs (the push saves one request round trip, sub-ms here — \
         T5's WAN wedge column is where it shows); stopworld blips above \
         core (with no speculation its new instance orders nothing until \
         the snapshot is in), then its residual commands wait out one \
         0.5s client retry; raft small blips per membership step";
      ]
    (timeline_rows @ [ summary ])

let experiment = { Table.id; title; run }
