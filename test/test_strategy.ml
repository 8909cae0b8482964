(* Strategy-API tests.

   1. Equivalence: the refactored driver running the default [composed]
      strategy must replay the historically load-bearing crucible traces
      (and the platform churn corpus) bit-for-bit against digests frozen
      BEFORE the refactor (test/data/strategy_equivalence.expected,
      written by record_equiv).  If this fails, the strategy extraction
      changed observable behavior — that is a bug, not a baseline drift
      to re-record.

   2. Registry sanity: names, aliases and stage dials of the registered
      strategies.

   3. Reconfig-churn soak: a runtest-sized slice of the CI soak — every
      registered strategy through membership-change-heavy scenarios,
      judged by the full oracle battery.

   4. Matchmaker behavior: early prepare actually fires (prepares /
      prepare_confirms counters), the wedged-window histogram is
      recorded under the strategy label, and the windows are no worse
      than the composed baseline's on the same scenarios. *)

module Strategy = Rsmr_iface.Reconfig_strategy
module Scenario = Rsmr_crucible.Scenario
module Generate = Rsmr_crucible.Generate
module Runner = Rsmr_crucible.Runner
module Oracle = Rsmr_crucible.Oracle
module Obs = Rsmr_obs.Registry
module Histogram = Rsmr_sim.Histogram

(* --- 1. golden-digest equivalence --- *)

let read_expected path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line ->
      if String.length line = 0 || line.[0] = '#' then go acc
      else (
        match String.index_opt line ' ' with
        | Some i ->
          go
            ((String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1))
             :: acc)
        | None -> go acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* dune runtest runs with cwd = the stanza's build dir; dune exec from
   the workspace root.  Accept either. *)
let expected_path () =
  List.find Sys.file_exists
    [
      "data/strategy_equivalence.expected";
      "test/data/strategy_equivalence.expected";
    ]

let test_composed_replays_golden () =
  let expected = read_expected (expected_path ()) in
  Alcotest.(check bool) "expected file is non-empty" true (expected <> []);
  let actual = Equiv_scenarios.all_lines () in
  Alcotest.(check int)
    "corpus size matches recording"
    (List.length expected) (List.length actual);
  List.iter2
    (fun (k_exp, d_exp) (k_act, d_act) ->
      Alcotest.(check string) "corpus key order" k_exp k_act;
      Alcotest.(check string)
        (Printf.sprintf "digest for %s (pre-refactor vs now)" k_exp)
        d_exp d_act)
    expected actual

(* --- 2. registry --- *)

let test_registry () =
  Alcotest.(check (list string))
    "registered strategy names"
    [ "composed"; "matchmaker"; "stopworld"; "raft" ]
    (List.map (fun s -> s.Strategy.name) Strategy.all);
  (* aliases resolve, and resolve to the same value as the canonical name *)
  List.iter
    (fun (alias, name) ->
      match (Strategy.find alias, Strategy.find name) with
      | Some a, Some b ->
        Alcotest.(check string)
          (Printf.sprintf "alias %s -> %s" alias name)
          b.Strategy.name a.Strategy.name
      | _ -> Alcotest.failf "alias %s or name %s did not resolve" alias name)
    [ ("core", "composed"); ("stop-the-world", "stopworld") ];
  Alcotest.(check bool) "unknown name rejected" true (Strategy.find "zab" = None);
  (* the stage dials the drivers key off *)
  let dials s = (s.Strategy.driver, s.Strategy.prepare, s.Strategy.handoff, s.Strategy.residuals) in
  Alcotest.(check bool) "composed dials" true
    (dials Strategy.composed = (`Composition, `At_wedge, `Speculative, `Resubmit));
  Alcotest.(check bool) "matchmaker dials" true
    (dials Strategy.matchmaker = (`Composition, `Early, `Speculative, `Resubmit));
  Alcotest.(check bool) "stopworld dials" true
    (dials Strategy.stopworld = (`Composition, `At_wedge, `Blocking, `Client_retry));
  Alcotest.(check bool) "raft is native" true
    (Strategy.raft.Strategy.driver = `Native)

(* --- 3. reconfig-churn soak (runtest slice of the CI soak) --- *)

let soak_seeds = [ 0; 1; 2 ]

let test_reconf_churn_all_strategies () =
  List.iter
    (fun seed ->
      let sc = Generate.reconf_churn_scenario ~seed in
      List.iter
        (fun proto ->
          let r = Runner.run proto sc in
          let o = Oracle.check r in
          match Oracle.failures o with
          | [] -> ()
          | fs ->
            Alcotest.failf "seed %d %s: %s" seed proto.Strategy.name
              (String.concat "; "
                 (List.map (fun (n, m) -> n ^ ": " ^ m) fs)))
        Strategy.all)
    soak_seeds

(* --- 4. matchmaker early prepare --- *)

let counter_of (r : Runner.report) name =
  match List.assoc_opt name r.Runner.counters with Some n -> n | None -> 0

let wedged_window (r : Runner.report) name =
  Obs.histogram r.Runner.obs "wedged_window_s" ~labels:[ ("strategy", name) ]

(* A reconfiguration-heavy scenario without message loss, so prepares
   deterministically reach the next configuration. *)
let prepare_scenario =
  {
    Scenario.seed = 1717;
    members = [ 0; 1; 2 ];
    universe = [ 0; 1; 2; 3; 4; 5 ];
    n_clients = 2;
    duration = 2.0;
    events =
      [
        { Scenario.at = 0.4; fault = Scenario.Reconfigure [ 1; 2; 3 ] };
        { Scenario.at = 1.0; fault = Scenario.Reconfigure [ 2; 3; 4 ] };
        { Scenario.at = 1.5; fault = Scenario.Reconfigure [ 3; 4; 5 ] };
      ];
  }

let test_matchmaker_prepares () =
  let r = Runner.run Strategy.matchmaker prepare_scenario in
  let o = Oracle.check r in
  (match Oracle.failures o with
   | [] -> ()
   | fs ->
     Alcotest.failf "oracles failed: %s"
       (String.concat "; " (List.map (fun (n, m) -> n ^ ": " ^ m) fs)));
  Alcotest.(check bool) "prepares were sent" true (counter_of r "prepares" > 0);
  Alcotest.(check bool)
    "some prepared instance was confirmed at wedge time" true
    (counter_of r "prepare_confirms" > 0);
  let h = wedged_window r "matchmaker" in
  Alcotest.(check bool) "wedged-window histogram recorded" true
    (Histogram.count h > 0)

let test_matchmaker_window_no_worse () =
  let rc = Runner.run Strategy.composed prepare_scenario in
  let rm = Runner.run Strategy.matchmaker prepare_scenario in
  let hc = wedged_window rc "composed" in
  let hm = wedged_window rm "matchmaker" in
  Alcotest.(check bool) "composed window recorded" true (Histogram.count hc > 0);
  Alcotest.(check bool) "matchmaker window recorded" true (Histogram.count hm > 0);
  (* The early-prepared instance has already booted (and usually elected)
     by the time the wedge commits, so its wedge->announce window can only
     shrink.  Equality would mean prepare never helped on this scenario —
     tolerated per-epoch, but not on the mean. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean wedged window: matchmaker %.6fs <= composed %.6fs"
       (Histogram.mean hm) (Histogram.mean hc))
    true
    (Histogram.mean hm <= Histogram.mean hc)

(* Composed must not send prepares at all (it is the no-early-prepare
   strategy), and must not leak provisional instances. *)
let test_composed_sends_no_prepares () =
  let r = Runner.run Strategy.composed prepare_scenario in
  Alcotest.(check int) "no prepares under composed" 0 (counter_of r "prepares");
  Alcotest.(check int) "no teardowns under composed" 0
    (counter_of r "prepare_teardowns")

let () =
  Alcotest.run "strategy"
    [
      ( "equivalence",
        [
          Alcotest.test_case "composed replays pre-refactor golden digests"
            `Slow test_composed_replays_golden;
        ] );
      ( "registry",
        [ Alcotest.test_case "names, aliases, dials" `Quick test_registry ] );
      ( "reconf-churn",
        [
          Alcotest.test_case "soak: every strategy, churn-heavy seeds" `Slow
            test_reconf_churn_all_strategies;
        ] );
      ( "matchmaker",
        [
          Alcotest.test_case "early prepare fires and confirms" `Quick
            test_matchmaker_prepares;
          Alcotest.test_case "wedged window no worse than composed" `Quick
            test_matchmaker_window_no_worse;
          Alcotest.test_case "composed sends no prepares" `Quick
            test_composed_sends_no_prepares;
        ] );
    ]
