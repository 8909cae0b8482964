(* Strategy-API tests.

   1. Equivalence: the refactored driver running the default [composed]
      strategy must replay the historically load-bearing crucible traces
      (and the platform churn corpus) bit-for-bit against digests frozen
      BEFORE the refactor (test/data/strategy_equivalence.expected,
      written by record_equiv).  If this fails, the strategy extraction
      changed observable behavior — that is a bug, not a baseline drift
      to re-record.

   2. Registry sanity: the stage dials of the registered strategies
      (their names and aliases are the protocol table's, test_protocol).

   3. Reconfig-churn soak: a runtest-sized slice of the CI soak — every
      registered strategy through membership-change-heavy scenarios,
      judged by the full oracle battery.

   4. Matchmaker behavior: with no loss every joiner installs a pushed
      snapshot without sending a [Fetch_state], one snapshot per joiner,
      and the wedged-window histogram is recorded under the strategy
      label; under the composed baseline each joiner asks, after the
      wedge that opens its epoch, and every snapshot sent answers a
      request. *)

module Strategy = Rsmr_iface.Reconfig_strategy
module Protocol = Rsmr_protocol.Protocol
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
  (* the stage dials the drivers key off *)
  let dials s = (s.Strategy.transfer, s.Strategy.handoff, s.Strategy.residuals) in
  Alcotest.(check bool) "composed dials" true
    (dials Strategy.composed = (`Pull, `Speculative, `Resubmit));
  Alcotest.(check bool) "matchmaker dials" true
    (dials Strategy.matchmaker = (`Push, `Speculative, `Resubmit));
  Alcotest.(check bool) "stopworld dials" true
    (dials Strategy.stopworld = (`Pull, `Blocking, `Client_retry))

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
            Alcotest.failf "seed %d %s: %s" seed proto.Protocol.name
              (String.concat "; "
                 (List.map (fun (n, m) -> n ^ ": " ^ m) fs)))
        Protocol.crucible)
    soak_seeds

(* --- 4. matchmaker's push --- *)

let counter_of (r : Runner.report) name =
  match List.assoc_opt name r.Runner.counters with Some n -> n | None -> 0

let net_count (r : Runner.report) key =
  Rsmr_sim.Counters.get (Obs.counters r.Runner.obs "net") key

let wedged_window (r : Runner.report) name =
  Obs.histogram r.Runner.obs "wedged_window_s" ~labels:[ ("strategy", name) ]

let check_oracles r =
  match Oracle.failures (Oracle.check r) with
  | [] -> ()
  | fs ->
    Alcotest.failf "oracles failed: %s"
      (String.concat "; " (List.map (fun (n, m) -> n ^ ": " ^ m) fs))

(* A reconfiguration-heavy scenario without message loss, so every push
   reaches its joiner.  Each change brings in one joiner, and the
   application state stays under one chunk, so [chunks_sent] counts
   snapshots. *)
let push_members = [ 0; 1; 2 ]
let push_universe = [ 0; 1; 2; 3; 4; 5 ]

let push_scenario =
  {
    Scenario.seed = 1717;
    shape =
      Scenario.Service { members = push_members; universe = push_universe };
    n_clients = 2;
    duration = 2.0;
    events =
      [
        { Scenario.at = 0.4; fault = Scenario.Reconfigure [ 1; 2; 3 ] };
        { Scenario.at = 1.0; fault = Scenario.Reconfigure [ 2; 3; 4 ] };
        { Scenario.at = 1.5; fault = Scenario.Reconfigure [ 3; 4; 5 ] };
      ];
  }

let joiners = List.length push_scenario.Scenario.events

let check_one_chunk_states (r : Runner.report) =
  List.iter
    (fun (n, st) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d's state fits one chunk" n)
        true
        (String.length st < Rsmr_core.Snapshot.chunk_bytes))
    (List.concat_map (fun (c : Runner.chain) -> c.Runner.states) r.Runner.chains)

let test_matchmaker_pushes () =
  let r = Runner.run Protocol.matchmaker push_scenario in
  check_oracles r;
  check_one_chunk_states r;
  Alcotest.(check int) "no Fetch_state sent" 0 (net_count r "sent.fetch_state");
  Alcotest.(check int) "every joiner installs by transfer" joiners
    (counter_of r "transfers");
  Alcotest.(check int) "one snapshot per joiner" joiners
    (counter_of r "chunks_sent");
  let h = wedged_window r "matchmaker" in
  Alcotest.(check bool) "wedged-window histogram recorded" true
    (Histogram.count h > 0)

(* The wedged-window means of the two strategies on [push_scenario] are
   a coin flip, decided by a handful of timer-driven messages.  What
   matchmaker does change, deterministically, is whether a joiner asks
   for the state: under composed its [Fetch_state] leaves on the
   [Bootstrap], after the wedge that opens its epoch; under matchmaker
   it sends none, and still installs by transfer.  So that is what is
   checked, on [push_scenario] itself, from the service's trace bus. *)
module MixedCore = Rsmr_core.Service.Make (Rsmr_crucible.Mixed)

(* [(epoch, first wedge time)], [(node, epoch, time)] of every
   [Fetch_state] and [(node, epoch)] of every activation by transfer in
   one run of [push_scenario] under [strategy]. *)
let trace_transfers strategy =
  let sc = push_scenario in
  let engine = Rsmr_sim.Engine.create ~seed:sc.Scenario.seed () in
  let svc =
    MixedCore.create ~engine
      ~options:{ Rsmr_core.Options.default with Rsmr_core.Options.strategy }
      ~universe:push_universe ~members:push_members ()
  in
  let wedges = ref [] and fetches = ref [] and installs = ref [] in
  Rsmr_sim.Trace.subscribe (Obs.bus (MixedCore.obs svc)) (fun ev ->
      let epoch () =
        Option.fold ~none:(-1) ~some:int_of_string
          (Rsmr_sim.Trace.attr ev "epoch")
      in
      match ev.Rsmr_sim.Trace.message with
      | "wedged" when not (List.mem_assoc (epoch ()) !wedges) ->
        wedges := (epoch (), ev.Rsmr_sim.Trace.time) :: !wedges
      | "fetch" ->
        fetches :=
          (ev.Rsmr_sim.Trace.node, epoch (), ev.Rsmr_sim.Trace.time) :: !fetches
      | "activated" when Rsmr_sim.Trace.attr ev "local" = Some "0" ->
        installs := (ev.Rsmr_sim.Trace.node, epoch ()) :: !installs
      | _ -> ());
  let cluster = MixedCore.cluster svc in
  let start = 0.2 in
  List.iter
    (fun { Scenario.at; fault } ->
      match fault with
      | Scenario.Reconfigure target ->
        ignore
          (Rsmr_sim.Engine.at engine ~time:(start +. at) (fun () ->
               Rsmr_iface.Overlay.reconfigure cluster.Rsmr_iface.Cluster.control
                 target))
      | _ -> ())
    sc.Scenario.events;
  let incr = Rsmr_crucible.Mixed.(encode_command (Cnt (Rsmr_app.Counter.Incr 1))) in
  ignore
    (Rsmr_workload.Driver.run_closed ~cluster ~n_clients:sc.Scenario.n_clients
       ~first_client_id:Runner.first_client_id
       ~gen:(fun ~client:_ ~seq:_ -> incr)
       ~think:0.02 ~window:4 ~start ~duration:sc.Scenario.duration ());
  Rsmr_sim.Engine.run engine ~until:(start +. sc.Scenario.duration +. 1.0);
  (!wedges, List.rev !fetches, !installs)

let test_joiners_install_unasked () =
  let rc = Runner.run Protocol.core push_scenario in
  let rm = Runner.run Protocol.matchmaker push_scenario in
  Alcotest.(check bool) "composed window recorded" true
    (Histogram.count (wedged_window rc "composed") > 0);
  Alcotest.(check bool) "matchmaker window recorded" true
    (Histogram.count (wedged_window rm "matchmaker") > 0);
  (* Each reconfiguration of [push_scenario] brings in one joiner:
     (joiner, the epoch it joins). *)
  let joiners = [ (3, 1); (4, 2); (5, 3) ] in
  List.iter
    (fun (strategy, asks) ->
      let wedges, fetches, installs = trace_transfers strategy in
      List.iter
        (fun (joiner, epoch) ->
          let label what =
            Printf.sprintf "%s: node %d, epoch %d: %s" strategy.Strategy.name
              joiner epoch what
          in
          (* The wedge of epoch [e - 1] opens epoch [e]. *)
          let wedge =
            match List.assoc_opt (epoch - 1) wedges with
            | Some w -> w
            | None -> Alcotest.fail (label "no wedge")
          in
          Alcotest.(check bool) (label "installs by transfer") true
            (List.mem (joiner, epoch) installs);
          match
            ( asks,
              List.find_opt (fun (n, e, _) -> n = joiner && e = epoch) fetches )
          with
          | false, None -> ()
          | false, Some (_, _, sent) ->
            Alcotest.failf "%s" (label (Printf.sprintf "Fetch_state at %.6fs" sent))
          | true, None -> Alcotest.fail (label "no Fetch_state")
          | true, Some (_, _, sent) ->
            Alcotest.(check bool)
              (label
                 (Printf.sprintf "first Fetch_state at %.6fs, wedge at %.6fs"
                    sent wedge))
              true (sent > wedge))
        joiners)
    [ (Strategy.matchmaker, false); (Strategy.composed, true) ]

(* Composed pushes nothing: with no loss, every snapshot it sends answers
   one [Fetch_state], and every joiner asked. *)
let test_composed_pushes_nothing () =
  let r = Runner.run Protocol.core push_scenario in
  check_oracles r;
  check_one_chunk_states r;
  let fetches = net_count r "sent.fetch_state" in
  Alcotest.(check bool) "every joiner asked" true (fetches >= joiners);
  Alcotest.(check int) "one snapshot per Fetch_state" fetches
    (counter_of r "chunks_sent")

let () =
  Alcotest.run "strategy"
    [
      ( "equivalence",
        [
          Alcotest.test_case "composed replays pre-refactor golden digests"
            `Slow test_composed_replays_golden;
        ] );
      ( "registry",
        [ Alcotest.test_case "stage dials" `Quick test_registry ] );
      ( "reconf-churn",
        [
          Alcotest.test_case "soak: every strategy, churn-heavy seeds" `Slow
            test_reconf_churn_all_strategies;
        ] );
      ( "matchmaker",
        [
          Alcotest.test_case "one pushed snapshot per joiner" `Quick
            test_matchmaker_pushes;
          Alcotest.test_case "joiners install without asking" `Quick
            test_joiners_install_unasked;
          Alcotest.test_case "composed pushes nothing" `Quick
            test_composed_pushes_nothing;
        ] );
    ]
