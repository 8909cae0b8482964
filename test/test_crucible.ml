(* Crucible self-tests: scenario codec, shrinker behavior, run
   determinism, a cross-protocol smoke soak, and the first-wedge-wins
   regression for concurrent reconfiguration submissions. *)

module Scenario = Rsmr_crucible.Scenario
module Generate = Rsmr_crucible.Generate
module Runner = Rsmr_crucible.Runner
module Oracle = Rsmr_crucible.Oracle
module Shrink = Rsmr_crucible.Shrink
module Soak = Rsmr_crucible.Soak
module Protocol = Rsmr_protocol.Protocol
module Service = Rsmr_core.Service

let scenario = Alcotest.testable Scenario.pp Scenario.equal

(* One of everything, for the codec. *)
let kitchen_sink =
  {
    Scenario.seed = 99;
    shape = Scenario.Service { members = [ 0; 1; 2 ]; universe = [ 0; 1; 2; 3; 4 ] };
    n_clients = 2;
    duration = 1.75;
    events =
      Scenario.sort_events
        [
          { at = 0.1; fault = Crash 2 };
          { at = 0.25; fault = Partition [ [ 0; 1 ]; [ 2; 3; 4 ] ] };
          { at = 0.4; fault = Link_fault { src = 0; dst = 1; drop = 0.5 } };
          { at = 0.5; fault = Duplicate 0.8 };
          { at = 0.55; fault = Drop 0.25 };
          { at = 0.6; fault = Recover 2 };
          { at = 0.7; fault = Heal };
          { at = 0.75; fault = Clear_links };
          { at = 0.8; fault = Reconfigure [ 0; 1; 3 ] };
          { at = 0.9; fault = Duplicate 0.0 };
          { at = 0.95; fault = Drop 0.0 };
        ];
  }

let round_trip sc =
  match Scenario.of_string (Scenario.to_string sc) with
  | Ok sc' -> Alcotest.check scenario "round trip" sc sc'
  | Error e ->
    Alcotest.failf "parse error on %s: %s" (Scenario.to_string sc) e

(* Every platform fault, over a platform shape of three shards. *)
let platform_sink =
  {
    Scenario.seed = 98;
    shape =
      Scenario.Platform
        {
          pool = [ 0; 1; 2; 3; 4; 5; 6 ];
          shards = [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5; 6 ] ];
          dir = [ 0; 3; 6 ];
        };
    n_clients = 4;
    duration = 2.8;
    events =
      [
        { at = 0.4; fault = Crash 5 };
        { at = 0.6; fault = Isolate_dir [ 0; 3; 6 ] };
        { at = 0.7; fault = Rebalance 2 };
        { at = 0.937; fault = Recover 5 };
        { at = 1.1; fault = Heal };
        { at = 1.2; fault = Isolate_dir [ 3 ] };
        { at = 1.25; fault = Rebalance 0 };
      ];
  }

let test_codec_round_trip () =
  round_trip kitchen_sink;
  round_trip platform_sink;
  for seed = 0 to 24 do
    round_trip (Generate.scenario ~seed);
    round_trip (Generate.dir_churn_scenario ~quick:false ~seed);
    round_trip (Generate.dir_churn_scenario ~quick:true ~seed)
  done;
  round_trip (Generate.storm_scenario ~quick:false);
  round_trip (Generate.storm_scenario ~quick:true)

let test_codec_rejects_garbage () =
  List.iter
    (fun s ->
      match Scenario.of_string s with
      | Ok _ -> Alcotest.failf "accepted garbage %S" s
      | Error _ -> ())
    [
      "";
      "nonsense";
      "s=1;m=0,1,2;u=0,1,2;c=1";
      "s=1;m=0,1,2;u=0,1,2;c=0;d=1;ev=";
      "s=1;m=;u=0;c=1;d=1;ev=";
      "s=1;m=0,1,2;u=0,1,2;c=1;d=1;ev=0.5 explode 1";
      "s=1;m=0,1,2;u=0,1,2;c=1;d=1;ev=0.5 link 0-1 0.5";
      "s=1;m=0,1,2;u=0,1,2;c=1;d=-2;ev=";
      (* platform shapes *)
      "s=1;p=0,1,2,3;sh=;dir=0;c=1;d=1;ev=";
      "s=1;p=0,1,2,3;sh=0,1/;dir=0;c=1;d=1;ev=";
      "s=1;p=0,1,2,3;sh=0,1/2,9;dir=0;c=1;d=1;ev=";
      "s=1;p=0,1,2,3;sh=0,1/2,3;c=1;d=1;ev=";
      "s=1;p=0,1,2,3;sh=0,1/2,3;dir=;c=1;d=1;ev=";
      "s=1;p=0,1,2,3;sh=0,1/2,3;dir=8;c=1;d=1;ev=";
      "s=1;p=0,1,2,3;m=0,1;u=0,1;sh=0,1/2,3;dir=0;c=1;d=1;ev=";
      (* platform faults *)
      "s=1;p=0,1,2,3;sh=0,1/2,3;dir=0;c=1;d=1;ev=0.5 rebal 2";
      "s=1;p=0,1,2,3;sh=0,1/2,3;dir=0;c=1;d=1;ev=0.5 rebal -1";
      "s=1;p=0,1,2,3;sh=0,1/2,3;dir=0;c=1;d=1;ev=0.5 rebal one";
      "s=1;p=0,1,2,3;sh=0,1/2,3;dir=0;c=1;d=1;ev=0.5 isolate 0,x";
      "s=1;p=0,1,2,3;sh=0,1/2,3;dir=0;c=1;d=1;ev=0.5 reconf 0,1";
      "s=1;p=0,1,2,3;sh=0,1/2,3;dir=0;c=1;d=1;ev=0.5 dup 0.5";
      "s=1;m=0,1,2;u=0,1,2;c=1;d=1;ev=0.5 rebal 0";
      "s=1;m=0,1,2;u=0,1,2;c=1;d=1;ev=0.5 isolate 0";
    ]

let test_generator_deterministic () =
  for seed = 0 to 24 do
    Alcotest.check scenario "same seed, same scenario"
      (Generate.scenario ~seed) (Generate.scenario ~seed);
    Alcotest.check scenario "same seed, same platform scenario"
      (Generate.dir_churn_scenario ~quick:false ~seed)
      (Generate.dir_churn_scenario ~quick:false ~seed)
  done

(* --- shrinker --- *)

(* A synthetic failure predicate lets us pin the shrinker's contract
   without paying for cluster runs: the scenario "fails" iff it still
   contains the fatal event. *)
let fatal = { Scenario.at = 0.7; fault = Scenario.Crash 2 }

let noisy_scenario =
  {
    Scenario.seed = 7;
    shape = Scenario.Service { members = [ 0; 1; 2 ]; universe = [ 0; 1; 2; 3 ] };
    n_clients = 3;
    duration = 2.0;
    events =
      Scenario.sort_events
        [
          { at = 0.1; fault = Scenario.Drop 0.1 };
          { at = 0.2; fault = Scenario.Partition [ [ 0 ]; [ 1; 2 ] ] };
          { at = 0.5; fault = Scenario.Heal };
          fatal;
          { at = 0.9; fault = Scenario.Recover 2 };
          { at = 1.2; fault = Scenario.Duplicate 0.5 };
          { at = 1.4; fault = Scenario.Duplicate 0.0 };
        ];
  }

let contains_fatal sc =
  List.exists
    (fun e -> Scenario.equal { sc with Scenario.events = [ e ] }
                { sc with Scenario.events = [ fatal ] })
    sc.Scenario.events

let test_shrink_to_fatal_event () =
  let shrunk, attempts =
    Shrink.minimize ~still_fails:contains_fatal noisy_scenario
  in
  (match shrunk.Scenario.events with
   | [ e ] ->
     Alcotest.(check (float 0.0)) "fatal time kept" fatal.Scenario.at
       e.Scenario.at
   | evs -> Alcotest.failf "expected exactly the fatal event, got %d" (List.length evs));
  Alcotest.(check bool) "still fails" true (contains_fatal shrunk);
  Alcotest.(check int) "one client left" 1 shrunk.Scenario.n_clients;
  Alcotest.(check bool) "spent attempts" true (attempts > 0);
  Alcotest.(check bool) "bounded attempts" true (attempts <= 200)

let test_shrink_deterministic () =
  let a, na = Shrink.minimize ~still_fails:contains_fatal noisy_scenario in
  let b, nb = Shrink.minimize ~still_fails:contains_fatal noisy_scenario in
  Alcotest.check scenario "same minimum" a b;
  Alcotest.(check int) "same attempt count" na nb

let test_shrink_always_failing () =
  (* If everything fails the shrinker must bottom out: no events, one
     client, short window — and still within its budget. *)
  let shrunk, attempts =
    Shrink.minimize ~still_fails:(fun _ -> true) noisy_scenario
  in
  Alcotest.(check int) "no events" 0 (List.length shrunk.Scenario.events);
  Alcotest.(check int) "one client" 1 shrunk.Scenario.n_clients;
  Alcotest.(check bool) "short window" true (shrunk.Scenario.duration <= 0.25);
  Alcotest.(check bool) "bounded" true (attempts <= 200)

(* --- full runs --- *)

let run_twice proto sc =
  (Runner.run proto sc, Runner.run proto sc)

let fingerprint (r : Runner.report) =
  ( ( r.Runner.events_executed,
      r.Runner.end_time,
      r.Runner.submitted,
      r.Runner.completed,
      r.Runner.acked_incr ),
    r.Runner.chains,
    r.Runner.platform,
    r.Runner.counters,
    Rsmr_checker.History.length r.Runner.history )

let test_run_deterministic () =
  List.iter
    (fun proto ->
      let sc = Generate.scenario ~seed:3 in
      let a, b = run_twice proto sc in
      Alcotest.(check bool)
        (Printf.sprintf "%s run is bit-for-bit repeatable"
           proto.Protocol.name)
        true
        (fingerprint a = fingerprint b))
    Protocol.crucible

let test_smoke_all_protos () =
  (* A handful of seeds across every stack; any oracle failure is a real
     protocol or harness bug and must fail the suite loudly. *)
  let summary =
    Soak.soak ~protos:Protocol.crucible
      ~scenarios:(List.init 5 (fun seed -> Generate.scenario ~seed))
      ()
  in
  List.iter
    (fun f -> Format.printf "%a@." Soak.pp_failure f)
    summary.Soak.failures;
  Alcotest.(check int) "runs"
    (5 * List.length Protocol.crucible)
    summary.Soak.runs;
  Alcotest.(check int) "no failures" 0 (List.length summary.Soak.failures)

let test_replay_matches_soak () =
  (* The printed reproducer must denote the same scenario: text → parse →
     run gives the same fingerprint as running the original, on a single
     service and on the platform. *)
  List.iter
    (fun (proto, sc) ->
      match Scenario.of_string (Scenario.to_string sc) with
      | Error e -> Alcotest.failf "reproducer does not parse: %s" e
      | Ok sc' ->
        let a = Runner.run proto sc in
        let b = Runner.run proto sc' in
        Alcotest.(check bool)
          (Printf.sprintf "replay of %s is bit-for-bit" (Scenario.to_string sc))
          true
          (fingerprint a = fingerprint b))
    [
      (Protocol.core, Generate.scenario ~seed:11);
      (Protocol.core, Generate.dir_churn_scenario ~quick:true ~seed:3);
    ]

(* --- first-wedge-wins regression ---

   Two Reconfigure submissions land in the same epoch at the same
   instant.  The composed service must let exactly one wedge the epoch:
   every replica that wedges epoch e agrees on the wedge index, the
   losing submission is reduced to a residual (applied or superseded in
   e+1), and no instance applies anything past its wedge. *)

let concurrent_reconf =
  {
    Scenario.seed = 4242;
    shape = Scenario.Service { members = [ 0; 1; 2 ]; universe = [ 0; 1; 2; 3; 4 ] };
    n_clients = 2;
    duration = 1.5;
    events =
      [
        { Scenario.at = 0.3; fault = Scenario.Reconfigure [ 0; 1; 3 ] };
        { Scenario.at = 0.3; fault = Scenario.Reconfigure [ 1; 2; 4 ] };
        { Scenario.at = 0.8; fault = Scenario.Reconfigure [ 0; 1; 2 ] };
      ];
  }

let test_first_wedge_wins () =
  let report = Runner.run Protocol.core concurrent_reconf in
  let outcome = Oracle.check report in
  if not (Oracle.ok outcome) then
    Alcotest.failf "oracles failed: %s" (Format.asprintf "%a" Oracle.pp outcome);
  (* Collect every (epoch, wedge index) the replicas report. *)
  let wedges = Hashtbl.create 8 in
  let wedged_epochs = ref [] in
  List.iter
    (fun (_node, stats) ->
      List.iter
        (fun (s : Service.epoch_stat) ->
          match s.Service.es_wedged_at with
          | None -> ()
          | Some w -> (
            match Hashtbl.find_opt wedges s.Service.es_epoch with
            | None ->
              Hashtbl.add wedges s.Service.es_epoch w;
              wedged_epochs := s.Service.es_epoch :: !wedged_epochs
            | Some w' ->
              Alcotest.(check int)
                (Printf.sprintf "epoch %d wedge agreement" s.Service.es_epoch)
                w' w))
        stats)
    (List.concat_map (fun (c : Runner.chain) -> c.Runner.epoch_stats)
       report.Runner.chains);
  (* The concurrent submissions really did reconfigure: epoch 0 wedged,
     and with three submissions at least two epochs wedged overall. *)
  Alcotest.(check bool) "epoch 0 wedged" true (Hashtbl.mem wedges 0);
  Alcotest.(check bool) "reconfiguration chain advanced" true
    (List.length !wedged_epochs >= 2);
  (* No replica applied past its epoch's wedge index. *)
  List.iter
    (fun (node, stats) ->
      List.iter
        (fun (s : Service.epoch_stat) ->
          match s.Service.es_wedged_at with
          | Some w when s.Service.es_applied_hi > w ->
            Alcotest.failf "node %d epoch %d applied %d past wedge %d" node
              s.Service.es_epoch s.Service.es_applied_hi w
          | _ -> ())
        stats)
    (List.concat_map (fun (c : Runner.chain) -> c.Runner.epoch_stats)
       report.Runner.chains);
  Alcotest.(check bool) "run quiesced" true report.Runner.quiesced;
  Alcotest.(check bool) "run converged" true report.Runner.converged

(* --- batched fast path under churn ---

   Batching, pipelining and client coalescing are default-on, and the
   runner drives 4-deep client windows, so this scenario pushes
   multi-command slots through reconfiguration churn, a duplicate storm
   and background loss on every stack.  The exactly-once and epoch-prefix
   oracles must hold: a batch is never applied twice, split, or carried
   past a wedge. *)

let batched_churn =
  {
    Scenario.seed = 808;
    shape = Scenario.Service { members = [ 0; 1; 2 ]; universe = [ 0; 1; 2; 3; 4 ] };
    n_clients = 4;
    duration = 2.0;
    events =
      Scenario.sort_events
        [
          { Scenario.at = 0.2; fault = Scenario.Duplicate 0.3 };
          { Scenario.at = 0.3; fault = Scenario.Drop 0.05 };
          { Scenario.at = 0.4; fault = Scenario.Reconfigure [ 1; 2; 3 ] };
          { Scenario.at = 0.9; fault = Scenario.Reconfigure [ 2; 3; 4 ] };
          { Scenario.at = 1.2; fault = Scenario.Duplicate 0.0 };
          { Scenario.at = 1.4; fault = Scenario.Reconfigure [ 0; 1; 2 ] };
          { Scenario.at = 1.6; fault = Scenario.Drop 0.0 };
        ];
  }

let test_batched_fast_path_under_churn () =
  List.iter
    (fun proto ->
      let report = Runner.run proto batched_churn in
      let outcome = Oracle.check report in
      if not (Oracle.ok outcome) then
        Alcotest.failf "%s oracles failed: %s" proto.Protocol.name
          (Format.asprintf "%a" Oracle.pp outcome);
      Alcotest.(check bool)
        (proto.Protocol.name ^ " quiesced")
        true report.Runner.quiesced)
    Protocol.crucible

(* --- linearizability, one object at a time ---

   The oracle splits the history by object (register, one KV key,
   counter) and checks each part on its own: a stale read on one key
   still fails the whole history, and histories too big to search as one
   now get a verdict. *)

module Mixed = Rsmr_crucible.Mixed
module History = Rsmr_checker.History
module Kv = Rsmr_app.Kv

(* The oracles over a short core run whose history is replaced by
   [ops]. *)
let lin_of ops =
  let r = Runner.run Protocol.core concurrent_reconf in
  let history = History.create () in
  List.iter (History.add history) ops;
  (Oracle.check { r with Runner.history }).Oracle.lin

let kv_op ~client ~invoked ~replied cmd rsp =
  { History.client;
    cmd = Mixed.encode_command (Mixed.Kv cmd);
    rsp = Mixed.encode_response (Mixed.Kv_r rsp);
    invoked;
    replied }

let test_stale_read_fails () =
  (* Both keys are written and then read after the write completed; the
     read of "a" answers [read_a]. *)
  let ops read_a =
    [ kv_op ~client:1 ~invoked:0.0 ~replied:1.0 (Kv.Put ("a", "1")) Kv.Ok;
      kv_op ~client:2 ~invoked:0.5 ~replied:1.5 (Kv.Put ("b", "2")) Kv.Ok;
      kv_op ~client:2 ~invoked:2.0 ~replied:3.0 (Kv.Get "b")
        (Kv.Value (Some "2"));
      kv_op ~client:1 ~invoked:2.5 ~replied:3.5 (Kv.Get "a") (Kv.Value read_a)
    ]
  in
  Alcotest.(check bool) "fresh read passes" true
    (lin_of (ops (Some "1")) = Oracle.Pass);
  Alcotest.(check bool) "stale read on one key fails" true
    (match lin_of (ops None) with Oracle.Fail _ -> true | _ -> false)

(* Core seed 70's 341-op history blew the 400k-state budget when
   searched whole. *)
let test_seed_70_decided () =
  let r = Runner.run Protocol.core (Generate.scenario ~seed:70) in
  Alcotest.(check bool) "linearizability passes" true
    ((Oracle.check r).Oracle.lin = Oracle.Pass)

(* --- teeth: a re-broken session dedup must be caught --- *)

(* Scope's minimal scope orders no duplicate of a command, so the
   crucible is this mutation's detector: seed 2 (the first failing seed
   of 0..30 over core) duplicates client requests in flight, and with
   dedup off the exactly-once oracle sees the counter pass the
   acknowledged increments.  The unmutated run passes (the soak). *)
let session_dedup_seed = 2

let test_session_dedup_caught () =
  let sc = Generate.scenario ~seed:session_dedup_seed in
  let r =
    Runner.run ~mutation:Rsmr_core.Options.No_session_dedup Protocol.core sc
  in
  let failed = List.map fst (Oracle.failures (Oracle.check r)) in
  Alcotest.(check bool)
    (Printf.sprintf "exactly-once fails (failed: %s)"
       (String.concat ", " failed))
    true
    (List.mem "exactly-once" failed);
  Alcotest.(check bool) "the unmutated run passes" true
    (Oracle.ok (Oracle.check (Runner.run Protocol.core sc)))

(* --- dir_churn: the sharded platform through the same pipeline --- *)

let dir_churn_protos = [ Protocol.core; Protocol.core_vr ]

let soak_clean scenarios =
  let summary = Soak.soak ~protos:dir_churn_protos ~scenarios () in
  List.iter
    (fun f -> Format.printf "%a@." Soak.pp_failure f)
    summary.Soak.failures;
  Alcotest.(check int) "runs"
    (List.length scenarios * List.length dir_churn_protos)
    summary.Soak.runs;
  Alcotest.(check int) "no failures" 0 (List.length summary.Soak.failures)

let test_dir_churn_smoke () =
  (* A few quick seeds of the platform churn family, both composition
     blocks — the full soak runs in CI; this guards the harness itself
     (a platform wiring regression should fail here, not only in CI). *)
  soak_clean
    (List.map
       (fun seed -> Generate.dir_churn_scenario ~quick:true ~seed)
       [ 0; 1 ])

let test_dir_churn_redirect_storm () =
  (* The redirect-storm regression against the replicated directory:
     blackout + concurrent rebalances of both shards must drain with
     bounded redirect traffic. *)
  soak_clean [ Generate.storm_scenario ~quick:true ]

(* Teeth on the platform: one rebalance with the first-wedge guard
   broken lets shard 0 apply past its wedge (a dir_churn seed 0 failure,
   shrunk by the soak to this one event); the unbroken run passes. *)
let test_platform_first_wedge_caught () =
  match
    Scenario.of_string
      "s=0;p=0,1,2,3,4,5;sh=0,1,2/3,4,5;dir=0,2,4;c=2;d=1.4;ev=1.185 rebal 0"
  with
  | Error e -> Alcotest.failf "reproducer does not parse: %s" e
  | Ok sc ->
    let failed =
      Runner.run ~mutation:Rsmr_core.Options.No_first_wedge Protocol.core sc
      |> Oracle.check |> Oracle.failures |> List.map fst
    in
    Alcotest.(check bool)
      (Printf.sprintf "epoch-prefix fails (failed: %s)"
         (String.concat ", " failed))
      true
      (List.mem "epoch-prefix" failed);
    Alcotest.(check bool) "the unmutated run passes" true
      (Oracle.ok (Oracle.check (Runner.run Protocol.core sc)))

(* A report built by hand: a settled, agreeing run of [sc] with the
   given history and platform counts, and nothing else to judge. *)
let hand_report ?(history = History.create ()) ?platform sc chains =
  {
    Runner.proto = Protocol.core;
    scenario = sc;
    history;
    submitted = History.length history;
    completed = History.length history;
    duplicates = 0;
    acked_incr = 0;
    quiesced = true;
    converged = true;
    chains =
      List.map
        (fun name ->
          { Runner.name; members = [ 0 ];
            states = [ (0, Mixed.snapshot (Mixed.init ())) ];
            epoch_stats = [] })
        chains;
    platform;
    counters = [];
    spans = Rsmr_obs.Span.summarize [];
    obs = Rsmr_obs.Registry.create ();
    events_executed = 0;
    end_time = 0.0;
  }

let quiet = { Runner.dir_regressions = 0; rebalances = 0; rebalances_done = 0 }

let platform_report ?history ?(platform = quiet) () =
  hand_report ?history ~platform (Generate.storm_scenario ~quick:true)
    [ "directory"; "shard 0"; "shard 1" ]

let single_report () = hand_report concurrent_reconf [ "service" ]

let is_fail = function Oracle.Fail _ -> true | _ -> false
let is_skip = function Oracle.Skip _ -> true | _ -> false

let test_platform_oracles () =
  let counts dir_regressions rebalances rebalances_done =
    Oracle.check
      (platform_report
         ~platform:{ Runner.dir_regressions; rebalances; rebalances_done } ())
  in
  let ok = counts 0 2 1 in
  Alcotest.(check bool) "clean platform report passes" true (Oracle.ok ok);
  Alcotest.(check bool) "a directory epoch regression fails" true
    (is_fail (counts 1 2 2).Oracle.dir_epoch);
  Alcotest.(check bool) "0 of 3 rebalances fails" true
    (is_fail (counts 0 3 0).Oracle.rebalance);
  Alcotest.(check bool) "no rebalance started passes" true
    ((counts 0 0 0).Oracle.rebalance = Oracle.Pass);
  let single = Oracle.check (single_report ()) in
  Alcotest.(check bool) "single service: dir-epoch-monotone skips" true
    (is_skip single.Oracle.dir_epoch);
  Alcotest.(check bool) "single service: rebalance-progress skips" true
    (is_skip single.Oracle.rebalance);
  Alcotest.(check bool) "a second reply fails exactly-once" true
    (is_fail
       (Oracle.check
          { (platform_report ()) with Runner.duplicates = 1 })
         .Oracle.exactly_once)

let test_stale_kv_read_fails () =
  (* The platform's history is plain Kv, split per key: the Kv twin of
     "stale read on one key fails". *)
  let op ~client ~invoked ~replied cmd rsp =
    { History.client;
      cmd = Kv.encode_command cmd;
      rsp = Kv.encode_response rsp;
      invoked;
      replied }
  in
  let lin read_a =
    let history = History.create () in
    List.iter (History.add history)
      [ op ~client:1 ~invoked:0.0 ~replied:1.0 (Kv.Put ("a", "1")) Kv.Ok;
        op ~client:2 ~invoked:0.5 ~replied:1.5 (Kv.Put ("b", "2")) Kv.Ok;
        op ~client:2 ~invoked:2.0 ~replied:3.0 (Kv.Get "b")
          (Kv.Value (Some "2"));
        op ~client:1 ~invoked:2.5 ~replied:3.5 (Kv.Get "a") (Kv.Value read_a)
      ];
    (Oracle.check (platform_report ~history ())).Oracle.lin
  in
  Alcotest.(check bool) "fresh Kv read passes" true (lin (Some "1") = Oracle.Pass);
  Alcotest.(check bool) "stale Kv read on one key fails" true
    (match lin None with Oracle.Fail _ -> true | _ -> false)

let test_chain_named_convergence () =
  (* One chain's members disagree, the directory's own included:
     convergence fails and names that chain. *)
  let r = platform_report () in
  List.iter
    (fun name ->
      let chains =
        List.map
          (fun (c : Runner.chain) ->
            if c.Runner.name = name then
              { c with Runner.members = [ 0; 1 ];
                       states = [ (0, "s"); (1, "t") ] }
            else c)
          r.Runner.chains
      in
      let prefix = name ^ ":" in
      match (Oracle.check { r with Runner.chains; converged = false })
              .Oracle.convergence with
      | Oracle.Fail msg ->
        Alcotest.(check bool)
          (Printf.sprintf "names %s (%s)" name msg)
          true
          (String.starts_with ~prefix msg)
      | _ -> Alcotest.failf "a disagreeing %s passed convergence" name)
    [ "directory"; "shard 1" ]

let () =
  Alcotest.run "crucible"
    [
      ( "scenario",
        [
          Alcotest.test_case "codec round trip" `Quick test_codec_round_trip;
          Alcotest.test_case "codec rejects garbage" `Quick
            test_codec_rejects_garbage;
          Alcotest.test_case "generator deterministic" `Quick
            test_generator_deterministic;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "known-fatal event isolated" `Quick
            test_shrink_to_fatal_event;
          Alcotest.test_case "deterministic" `Quick test_shrink_deterministic;
          Alcotest.test_case "always-failing bottoms out" `Quick
            test_shrink_always_failing;
        ] );
      ( "runs",
        [
          Alcotest.test_case "bit-for-bit determinism" `Quick
            test_run_deterministic;
          Alcotest.test_case "replay equals original" `Quick
            test_replay_matches_soak;
          Alcotest.test_case "smoke soak, all protocols" `Slow
            test_smoke_all_protos;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "first wedge wins" `Quick test_first_wedge_wins;
          Alcotest.test_case "batched fast path under churn" `Quick
            test_batched_fast_path_under_churn;
          Alcotest.test_case "session-dedup mutation is caught" `Quick
            test_session_dedup_caught;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "stale read on one key fails" `Quick
            test_stale_read_fails;
          Alcotest.test_case "stale Kv read on one key fails" `Quick
            test_stale_kv_read_fails;
          Alcotest.test_case "seed 70 decided per object" `Quick
            test_seed_70_decided;
        ] );
      ( "dir_churn",
        [
          Alcotest.test_case "platform churn smoke" `Quick
            test_dir_churn_smoke;
          Alcotest.test_case "redirect storm regression" `Quick
            test_dir_churn_redirect_storm;
          Alcotest.test_case "first-wedge mutation is caught" `Quick
            test_platform_first_wedge_caught;
          Alcotest.test_case "platform oracles" `Quick test_platform_oracles;
          Alcotest.test_case "convergence names the chain" `Quick
            test_chain_named_convergence;
        ] );
    ]
