(* T5 — Strategy shoot-out under reconfiguration churn.
   Every registered reconfiguration strategy through the crucible's
   membership-change-heavy scenario family, judged by the full oracle
   battery and costed along the dimensions the strategy API dials:
   wedged window (client-visible handoff blackout), state-transfer
   bytes, and the snapshot requests sent.  A second, fault-free probe
   prices one fleet replacement per composition strategy over WAN
   latencies. *)

module Generate = Rsmr_crucible.Generate
module Runner = Rsmr_crucible.Runner
module Oracle = Rsmr_crucible.Oracle
module Obs = Rsmr_obs.Registry
module Histogram = Rsmr_sim.Histogram
module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Protocol = Rsmr_protocol.Protocol

let id = "T5"
let title = "Strategy comparison under reconfiguration churn"

let counter_of (r : Runner.report) name =
  match List.assoc_opt name r.Runner.counters with Some n -> n | None -> 0

let run_one proto ~seeds =
  let passed = ref 0 and completed = ref 0 in
  let transfer = ref 0 and fetches = ref 0 in
  let windows = ref [] in
  List.iter
    (fun seed ->
      let r = Runner.run proto (Generate.reconf_churn_scenario ~seed) in
      if Oracle.failures (Oracle.check r) = [] then incr passed;
      completed := !completed + r.Runner.completed;
      transfer := !transfer + counter_of r "transfer_bytes";
      fetches :=
        !fetches
        + Counters.get (Obs.counters r.Runner.obs "net") "sent.fetch_state";
      let h =
        Obs.histogram r.Runner.obs "wedged_window_s"
          ~labels:[ ("strategy", Protocol.strategy_name proto) ]
      in
      if Histogram.count h > 0 then windows := Histogram.mean h :: !windows)
    seeds;
  let window =
    match !windows with
    | [] -> Float.nan
    | ws -> List.fold_left ( +. ) 0.0 ws /. float_of_int (List.length ws)
  in
  (!passed, !completed, window, !transfer, !fetches)

(* One fleet replacement {0,1,2} -> {3,4,5} after a 200-key preload, over
   the WAN latency model: with sub-millisecond RTTs the request round
   trip that matchmaker's push saves is too small to show.
   Returns the mean wedge->announce window (seconds) and the transfer
   bytes, both simulator-exact; [None] for raft, which never wedges. *)
let wan_probe proto =
  match proto.Protocol.kind with
  | Protocol.Raft -> None
  | Protocol.Composed _ ->
    let { Common.engine; cluster; _ } =
      Common.make ~seed:3 ~latency:Rsmr_net.Latency.wan proto
        ~members:[ 0; 1; 2 ] ~universe:(Common.default_universe 6)
    in
    let obs = cluster.Rsmr_iface.Cluster.obs in
    Rsmr_workload.Driver.preload ~cluster ~client:98
      ~commands:
        (Rsmr_workload.Kv_gen.preload_commands ~n_keys:200 ~value_size:64)
      ~deadline:60.0 ();
    Rsmr_iface.Overlay.reconfigure cluster.Rsmr_iface.Cluster.control
      [ 3; 4; 5 ];
    Engine.run ~until:(Engine.now engine +. 30.0) engine;
    let h =
      Obs.histogram obs "wedged_window_s"
        ~labels:[ ("strategy", Protocol.strategy_name proto) ]
    in
    Some
      ( Histogram.mean h,
        Counters.get (Obs.counters obs "svc") "transfer_bytes" )

let run ?(quick = false) () =
  let seeds = if quick then [ 0; 1 ] else [ 0; 1; 2; 3; 4; 5 ] in
  let n = List.length seeds in
  let rows =
    List.map
      (fun proto ->
        let passed, completed, window, transfer, fetches =
          run_one proto ~seeds
        in
        let wan_window, wan_transfer =
          match wan_probe proto with
          | Some (w, b) -> (Table.cell_ms w, string_of_int b)
          | None -> ("n/a", "n/a")
        in
        [
          Protocol.strategy_name proto;
          Printf.sprintf "%d/%d" passed n;
          string_of_int completed;
          (if Float.is_nan window then "n/a" else Table.cell_ms window);
          string_of_int transfer;
          string_of_int fetches;
          wan_window;
          wan_transfer;
        ])
      Protocol.[ core; matchmaker; stopworld; raft ]
  in
  Table.make ~id ~title
    ~headers:
      [
        "strategy";
        "oracles";
        "ops";
        "mean wedge";
        "transfer B";
        "fetches";
        "WAN wedge";
        "WAN transfer B";
      ]
    ~notes:
      [
        "crucible reconf_churn family: 3-6 membership changes per run, half \
         chased by a second change, plus one crash/recover or drop spell; \
         every run must pass the full oracle battery";
        "expected shape: matchmaker's push takes the joiner's request \
         round trip out of the wedged window, which shows in the WAN \
         column (the churn rows' windows are sub-ms but stopworld's), \
         and its joiners send a Fetch_state only after a push stalls; \
         stopworld pays the largest window (blocking handoff, \
         client-retry residuals); raft is native (no wedge, so no window \
         to report)";
        "fetches: Fetch_state messages sent (the net section), by joiners \
         and by members whose local handoff was late";
        "WAN columns: one fault-free fleet replacement {0,1,2} -> {3,4,5} \
         after a 200-key x 64B preload over WAN latencies (seed 3), where \
         matchmaker's saved request round trip is visible against the \
         same transfer bytes";
      ]
    rows

let experiment = { Table.id; title; run }
