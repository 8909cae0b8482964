(* T5 — Strategy shoot-out under reconfiguration churn.
   Every registered reconfiguration strategy through the crucible's
   membership-change-heavy scenario family, judged by the full oracle
   battery and costed along the dimensions the strategy API dials:
   wedged window (client-visible handoff blackout), state-transfer
   bytes, and early-prepare traffic. *)

module Generate = Rsmr_crucible.Generate
module Runner = Rsmr_crucible.Runner
module Oracle = Rsmr_crucible.Oracle
module Obs = Rsmr_obs.Registry
module Histogram = Rsmr_sim.Histogram
module Strategy = Rsmr_iface.Reconfig_strategy

let id = "T5"
let title = "Strategy comparison under reconfiguration churn"

let counter_of (r : Runner.report) name =
  match List.assoc_opt name r.Runner.counters with Some n -> n | None -> 0

let run_one proto ~seeds =
  let passed = ref 0 and completed = ref 0 in
  let transfer = ref 0 and prepares = ref 0 in
  let windows = ref [] in
  List.iter
    (fun seed ->
      let r = Runner.run proto (Generate.reconf_churn_scenario ~seed) in
      if Oracle.failures (Oracle.check r) = [] then incr passed;
      completed := !completed + r.Runner.completed;
      transfer := !transfer + counter_of r "transfer_bytes";
      prepares := !prepares + counter_of r "prepares";
      let h =
        Obs.histogram r.Runner.obs "wedged_window_s"
          ~labels:[ ("strategy", proto.Strategy.name) ]
      in
      if Histogram.count h > 0 then windows := Histogram.mean h :: !windows)
    seeds;
  let window =
    match !windows with
    | [] -> Float.nan
    | ws -> List.fold_left ( +. ) 0.0 ws /. float_of_int (List.length ws)
  in
  (!passed, !completed, window, !transfer, !prepares)

let run ?(quick = false) () =
  let seeds = if quick then [ 0; 1 ] else [ 0; 1; 2; 3; 4; 5 ] in
  let n = List.length seeds in
  let rows =
    List.map
      (fun proto ->
        let passed, completed, window, transfer, prepares =
          run_one proto ~seeds
        in
        [
          proto.Strategy.name;
          Printf.sprintf "%d/%d" passed n;
          string_of_int completed;
          (if Float.is_nan window then "n/a" else Table.cell_ms window);
          string_of_int transfer;
          string_of_int prepares;
        ])
      Strategy.all
  in
  Table.make ~id ~title
    ~headers:
      [ "strategy"; "oracles"; "ops"; "mean wedge"; "transfer B"; "prepares" ]
    ~notes:
      [
        "crucible reconf_churn family: 3-6 membership changes per run, half \
         chased by a second change, plus one crash/recover or drop spell; \
         every run must pass the full oracle battery";
        "expected shape: matchmaker's early prepare shrinks the mean wedged \
         window below composed at the cost of prepare traffic; stopworld \
         pays the largest window (blocking handoff, client-retry \
         residuals); raft is native (no wedge, so no window to report)";
      ]
    rows
