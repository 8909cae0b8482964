(* Shared corpus for the strategy-equivalence check.

   These are the historically load-bearing crucible traces — the PR-4
   first-wedge-wins reconfiguration race and the PR-8/PR-9 batched churn
   shape — plus a few generated seeds, each reduced to a stable digest of
   the runner's deterministic outputs.  [Record_equiv] runs them against
   the tree and freezes the digests in
   [test/data/strategy_equivalence.expected]; [Test_strategy] replays the
   same corpus through the (refactored) default strategy and demands
   bit-for-bit equality.

   The digest deliberately covers only fields that define the observable
   schedule and the replicated state: event count, end time, workload
   totals, final membership, final application snapshots and the
   per-instance epoch audit records.  Counters, spans and Observatory
   output are excluded — those are telemetry and are allowed to grow. *)

module Scenario = Rsmr_crucible.Scenario
module Generate = Rsmr_crucible.Generate
module Runner = Rsmr_crucible.Runner
module Service = Rsmr_core.Service
module Oracle = Rsmr_crucible.Oracle
module Protocol = Rsmr_protocol.Protocol

(* PR-4: two Reconfigure submissions race in the same epoch. *)
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

(* PR-8/PR-9: multi-command slots through reconfiguration churn, a
   duplicate storm and background loss. *)
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

let generated_seeds = [ 3; 11; 42 ]

(* (label, scenario) pairs, run under every protocol in [service_protos]. *)
let corpus =
  [
    ("concurrent_reconf", concurrent_reconf);
    ("batched_churn", batched_churn);
  ]
  @ List.map
      (fun s -> (Printf.sprintf "gen_seed_%d" s, Generate.scenario ~seed:s))
      generated_seeds

(* Platform-level dir_churn seeds kept in the corpus: the storm
   regression plus a couple of seeded schedules, over both blocks. *)
let churn_seeds = [ 0; 7 ]
let churn_protos = [ Protocol.core; Protocol.core_vr ]

(* --- canonical rendering + digest --- *)

let fnv1a (s : string) : string =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let render_ints b ns =
  Buffer.add_char b '[';
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int n))
    ns;
  Buffer.add_char b ']'

let render_report proto_name (r : Runner.report) =
  let b = Buffer.create 512 in
  Buffer.add_string b proto_name;
  Buffer.add_char b '\n';
  Buffer.add_string b (Printf.sprintf "events=%d\n" r.Runner.events_executed);
  Buffer.add_string b (Printf.sprintf "end=%.9f\n" r.Runner.end_time);
  Buffer.add_string b
    (Printf.sprintf "submitted=%d completed=%d acked_incr=%d\n"
       r.Runner.submitted r.Runner.completed r.Runner.acked_incr);
  Buffer.add_string b
    (Printf.sprintf "quiesced=%b converged=%b\n" r.Runner.quiesced
       r.Runner.converged);
  let chain =
    match r.Runner.chains with
    | [ c ] -> c
    | _ -> invalid_arg "render_report: a single service has one chain"
  in
  Buffer.add_string b "members=";
  render_ints b chain.Runner.members;
  Buffer.add_char b '\n';
  List.iter
    (fun (n, s) ->
      Buffer.add_string b (Printf.sprintf "state %d %s\n" n (fnv1a s)))
    chain.Runner.states;
  (match chain.Runner.states with
  | (_, s) :: _ ->
    Buffer.add_string b
      (Printf.sprintf "counter=%d\n"
         (Rsmr_crucible.Mixed.counter_value (Rsmr_crucible.Mixed.restore s)))
  | [] -> Buffer.add_string b "counter=-\n");
  List.iter
    (fun (node, stats) ->
      List.iter
        (fun (s : Service.epoch_stat) ->
          Buffer.add_string b
            (Printf.sprintf "epoch %d %d act=%b ret=%b wedge=%s hi=%d\n" node
               s.Service.es_epoch s.Service.es_activated s.Service.es_retired
               (match s.Service.es_wedged_at with
               | None -> "-"
               | Some w -> string_of_int w)
               s.Service.es_applied_hi))
        stats)
    chain.Runner.epoch_stats;
  Buffer.contents b

let run_digest proto proto_name sc =
  let r = Runner.run proto sc in
  fnv1a (render_report proto_name r)

(* The churn lines keep the labels they were recorded under, from before
   dir_churn named protocols through the table: core/vr was "vr". *)
let churn_label p =
  if String.equal p.Protocol.name "core/vr" then "vr" else p.Protocol.name

let churn_digest proto (sc : Scenario.t) =
  let r = Runner.run proto sc in
  let p =
    match r.Runner.platform with
    | Some p -> p
    | None -> invalid_arg "churn_digest: not a platform scenario"
  in
  fnv1a
    (Printf.sprintf "%s seed=%d cmds=%d replies=%d reb=%d redir=%d regr=%d ok=%b"
       (churn_label proto) sc.Scenario.seed r.Runner.submitted r.Runner.completed
       p.Runner.rebalances_done
       (Option.value (List.assoc_opt "redirects" r.Runner.counters) ~default:0)
       p.Runner.dir_regressions
       (Oracle.ok (Oracle.check r)))

(* Every (key, digest) line the expected file must contain, in order.
   [protos] names runner protocols by string so this module stays valid
   across the strategy refactor: the recorder and the test both resolve
   names through [Protocol.find]. *)
let service_protos = [ "core"; "stopworld"; "matchmaker"; "raft" ]

let all_lines () =
  let service =
    List.concat_map
      (fun (label, sc) ->
        List.filter_map
          (fun pname ->
            match Protocol.find pname with
            | None -> None
            | Some proto ->
              Some
                ( Printf.sprintf "svc/%s/%s" pname label,
                  run_digest proto pname sc ))
          service_protos)
      corpus
  in
  let churn =
    List.concat_map
      (fun proto ->
        let pname = churn_label proto in
        (Printf.sprintf "churn/%s/storm" pname,
         churn_digest proto (Generate.storm_scenario ~quick:false))
        :: List.map
             (fun seed ->
               ( Printf.sprintf "churn/%s/seed_%d" pname seed,
                 churn_digest proto
                   (Generate.dir_churn_scenario ~quick:false ~seed) ))
             churn_seeds)
      churn_protos
  in
  service @ churn
