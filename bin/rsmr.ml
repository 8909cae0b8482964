(* rsmr — command-line front end.

     rsmr experiments [--quick] [ID...]   regenerate evaluation tables
     rsmr run [options]                   ad-hoc scenario, prints stats
     rsmr crucible [options]              seeded fault-injection soak
     rsmr scope [options]                 exhaustive bounded model check
     rsmr list                            list experiment ids

   Every subcommand names protocols with one --proto argument over the
   protocol table; crucible and scope take it repeatedly.  A
   linearizability check of one run is a crucible scenario, e.g.
   --scenario 's=1;m=0,1,2;u=0,1,2,3,4,5;c=4;d=6;ev=3 reconf 3,4,5'. *)

open Cmdliner

module Histogram = Rsmr_sim.Histogram
module Common = Rsmr_experiments.Common
module Registry = Rsmr_experiments.Registry
module Table = Rsmr_experiments.Table
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule
module Protocol = Rsmr_protocol.Protocol

(* A conv from a parser and printer over strings. *)
let text_conv parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
      fun ppf x -> Format.pp_print_string ppf (print x) )

let proto_conv =
  text_conv
    (fun s ->
      Option.to_result ~none:(Printf.sprintf "unknown protocol %S" s)
        (Protocol.find (String.lowercase_ascii s)))
    (fun p -> p.Protocol.name)

let proto_info =
  let names =
    List.sort_uniq String.compare
      (List.map (fun p -> p.Protocol.name) (Protocol.all @ Protocol.crucible))
  in
  Arg.info [ "proto" ] ~docv:"PROTO"
    ~doc:("Protocol: " ^ String.concat ", " names ^ ".")

(* Checker input that parses but cannot be run meaningfully: say why,
   exit 2, run nothing. *)
let refuse fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("rsmr: " ^ msg);
      exit 2)
    fmt

let composed_only ~what p =
  match p.Protocol.kind with
  | Protocol.Composed { block; _ } -> block
  | Protocol.Raft ->
    refuse "%s: %s has no composition layer (pick a composed protocol)" what
      p.Protocol.name

(* Host seconds, for the checkers' summary lines only. *)
let seconds () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let members_conv =
  text_conv
    (fun s ->
      try Ok (List.map int_of_string (String.split_on_char ',' s))
      with Failure _ -> Error "expected comma-separated node ids")
    (fun ms -> String.concat "," (List.map string_of_int ms))

(* --- experiments --- *)

let experiments_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Scaled-down parameter sweeps.")
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  (* Every id is resolved before any table runs: a typo fails the whole
     command with a non-zero exit instead of silently shrinking the run. *)
  let run quick ids =
    let found, unknown =
      List.partition_map
        (fun id ->
          match Registry.find id with Some e -> Left e | None -> Right id)
        ids
    in
    match unknown with
    | _ :: _ ->
      `Error (true, "unknown experiment: " ^ String.concat ", " unknown)
    | [] ->
      let entries = match ids with [] -> Registry.all | _ -> found in
      List.iter
        (fun (e : Table.experiment) -> Table.print (e.run ~quick ()))
        entries;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the evaluation tables/figures")
    Term.(ret (const run $ quick $ ids))

let list_cmd =
  let run () =
    List.iter
      (fun (e : Table.experiment) -> Printf.printf "%-4s %s\n" e.id e.title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids") Term.(const run $ const ())

(* --- ad-hoc run --- *)

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let proto_t = Arg.(value & opt proto_conv Protocol.core & proto_info)

let replicas_t =
  Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Initial replica count.")

let clients_t = Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Closed-loop clients.")
let duration_t = Arg.(value & opt float 10.0 & info [ "duration" ] ~doc:"Load duration (sim s).")
let drop_t = Arg.(value & opt float 0.0 & info [ "drop" ] ~doc:"Message drop probability.")
let keys_t = Arg.(value & opt int 1000 & info [ "keys" ] ~doc:"Preloaded key count.")
let read_ratio_t = Arg.(value & opt float 0.5 & info [ "read-ratio" ] ~doc:"Fraction of Gets.")

let reconfig_at_t =
  Arg.(value & opt (some float) None & info [ "reconfigure-at" ] ~doc:"Reconfigure at this time.")

let target_t =
  Arg.(value & opt (some members_conv) None & info [ "target" ] ~doc:"Target members, e.g. 3,4,5.")

let crash_at_t =
  Arg.(value & opt (some float) None & info [ "crash-leader-at" ] ~doc:"Crash the leader at this time.")

let run_scenario seed proto replicas clients duration drop keys read_ratio
    reconfig_at target crash_at =
  let members = List.init replicas Fun.id in
  let universe = List.init (replicas + 3) Fun.id in
  let setup = Common.make ~seed ~drop proto ~members ~universe in
  Printf.printf "protocol=%s replicas=%d clients=%d duration=%gs drop=%g seed=%d\n"
    proto.Protocol.name replicas clients duration drop seed;
  let t0, stats =
    Driver.kv_closed ~cluster:setup.Common.cluster ~n_keys:keys
      ~preload_deadline:600.0 ~read_ratio ~n_clients:clients ~duration ()
  in
  (match (reconfig_at, target) with
   | Some at, Some members' ->
     Schedule.reconfigure_at setup.Common.cluster ~time:(t0 +. at) members'
   | Some at, None ->
     let shifted = List.map (fun m -> m + 3) members in
     Schedule.reconfigure_at setup.Common.cluster ~time:(t0 +. at) shifted
   | None, _ -> ());
  (match crash_at with
   | Some at ->
     Schedule.at setup.Common.cluster ~time:(t0 +. at) (fun () ->
         match setup.Common.leader () with
         | Some l ->
           Printf.printf "t=+%g crashing leader n%d\n" at l;
           let control = setup.Common.cluster.Rsmr_iface.Cluster.control in
           Rsmr_iface.Overlay.crash control l
         | None -> print_endline "no leader to crash")
   | None -> ());
  Common.run_to setup (t0 +. duration +. 10.0);
  Printf.printf "\ncompleted %d of %d submitted\nlatency: %s\n"
    stats.Driver.completed stats.Driver.submitted
    (Format.asprintf "%a" Histogram.pp_summary stats.Driver.latency);
  Printf.printf "members now {%s}\n"
    (String.concat ","
       (List.map string_of_int (setup.Common.cluster.Rsmr_iface.Cluster.members ())));
  let obs = setup.Common.cluster.Rsmr_iface.Cluster.obs in
  Printf.printf "protocol counters: %s\n"
    (Format.asprintf "%a" Rsmr_sim.Counters.pp
       (Rsmr_obs.Registry.counters obs "svc"));
  Printf.printf "network: %s\n"
    (Format.asprintf "%a" Rsmr_sim.Counters.pp
       (Rsmr_obs.Registry.counters obs "net"))

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run an ad-hoc scenario and print statistics")
    Term.(
      const run_scenario $ seed_t $ proto_t $ replicas_t $ clients_t
      $ duration_t $ drop_t $ keys_t $ read_ratio_t $ reconfig_at_t $ target_t
      $ crash_at_t)

(* --- checkers: crucible and scope --- *)

module Scenario = Rsmr_crucible.Scenario
module Generate = Rsmr_crucible.Generate
module Runner = Rsmr_crucible.Runner
module Oracle = Rsmr_crucible.Oracle
module Soak = Rsmr_crucible.Soak
module Scope = Rsmr_mc.Scope
module Choice = Rsmr_mc.Choice
module Harness = Rsmr_mc.Harness
module Explore = Rsmr_mc.Explore

let protos_t = Arg.(value & opt_all proto_conv [] & proto_info)
let flag names doc = Arg.(value & flag & info names ~doc)

let file names doc =
  Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

(* "N" or "A..B"; a reversed range is refused before anything runs. *)
let seeds_conv =
  text_conv
    (fun s ->
      match List.map int_of_string_opt (String.split_on_char '.' s) with
      | [ Some n ] -> Ok (n, n)
      | [ Some a; None; Some b ] -> Ok (a, b)
      | _ -> Error (Printf.sprintf "bad seed range %S (N or A..B)" s))
    (fun (a, b) -> Printf.sprintf "%d..%d" a b)

let write_failures path pp failures =
  Out_channel.with_open_text path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      List.iter (Format.fprintf ppf "%a@." pp) failures;
      Format.pp_print_flush ppf ());
  Format.printf "failure traces written to %s@." path

let soak ~generate ~default_protos ~protos ~seeds ~scenario ~lin_budget
    ~shrink ~mutation ~print_only ~out ~metrics ~verbose =
  let protos = if protos = [] then default_protos else protos in
  let scenarios =
    match (scenario, seeds) with
    | Some sc, _ -> [ sc ]
    | None, [] -> refuse "crucible: need --seed/--seeds or --scenario"
    | None, seeds -> List.map (fun seed -> generate ~seed) seeds
  in
  (* The platform is built from a block, so raft cannot run it.  One
     command's scenarios share their shape. *)
  (match scenarios with
   | { Scenario.shape = Scenario.Platform _; _ } :: _ ->
     List.iter (fun p -> ignore (composed_only ~what:"the platform" p)) protos
   | _ -> ());
  if print_only then begin
    List.iter (fun sc -> print_endline (Scenario.to_string sc)) scenarios;
    exit 0
  end;
  (* The first (scenario, proto) pair's report, kept for --metrics. *)
  let first = ref None in
  let on_run proto sc (r : Runner.report) result =
    if Option.is_some metrics && Option.is_none !first then first := Some r;
    match result with
    | Error f -> Format.printf "%a@." Soak.pp_failure f
    | Ok outcome when verbose ->
      Format.printf "seed %d %-9s ok (%d/%d ops, %d sim events, vt %.2fs)@.%a@."
        sc.Scenario.seed proto.Protocol.name r.Runner.completed
        r.Runner.submitted r.Runner.events_executed r.Runner.end_time Oracle.pp
        outcome;
      Format.printf "  %a@." Rsmr_obs.Span.pp_summary r.Runner.spans;
      List.iter
        (fun (k, v) -> if v > 1000 then Format.printf "  %s = %d@." k v)
        r.Runner.counters
    | Ok _ -> ()
  in
  let t0 = seconds () in
  let s =
    Soak.soak ~lin_budget ~shrink ?mutation ~on_run ~protos ~scenarios ()
  in
  let failures = s.Soak.failures in
  Format.printf
    "crucible: %d runs (%d seeds x %d protos), %d passed, %d failed, %d with \
     inconclusive verdicts (%.1f%%), %.1fs wall@."
    s.Soak.runs (List.length scenarios) (List.length protos) s.Soak.passed
    (List.length failures) s.Soak.inconclusive
    (100.0 *. float_of_int s.Soak.inconclusive
     /. float_of_int (max 1 s.Soak.runs))
    (seconds () -. t0);
  if failures <> [] then
    Option.iter (fun path -> write_failures path Soak.pp_failure failures) out;
  (* One rsmr-metrics/1 artifact for the first (scenario, proto) pair:
     counters, histograms, series and span aggregates of its run. *)
  (match (metrics, !first) with
   | Some path, Some r ->
     Rsmr_obs.Registry.save r.Runner.obs ~path;
     Format.printf "metrics written to %s (spans: %a)@." path
       Rsmr_obs.Span.pp_summary r.Runner.spans
   | Some _, None | None, _ -> ());
  exit (if failures = [] then 0 else 1)

let crucible seeds protos family storm quick scenario lin_budget no_shrink
    mutation print_only out metrics verbose =
  let seeds =
    List.concat_map
      (fun (a, b) ->
        if b < a then refuse "crucible: reversed seed range %d..%d" a b
        else List.init (b - a + 1) (( + ) a))
      seeds
  in
  let soak ?(default_protos = Protocol.crucible) ?(scenario = scenario)
      generate =
    soak ~generate ~default_protos ~protos ~seeds ~scenario ~lin_budget
      ~shrink:(not no_shrink) ~mutation ~print_only ~out ~metrics ~verbose
  in
  match family with
  | `Default -> soak Generate.scenario
  | `Reconf_churn -> soak Generate.reconf_churn_scenario
  | `Dir_churn ->
    (* one protocol per block, as in experiment T4 *)
    soak ~default_protos:[ Protocol.core; Protocol.core_vr ]
      ~scenario:
        (if storm then Some (Generate.storm_scenario ~quick) else scenario)
      (Generate.dir_churn_scenario ~quick)

let mutate_t =
  Arg.(
    value
    & opt (some (enum Rsmr_core.Options.mutations)) None
    & info [ "mutate" ] ~doc:"Re-introduce a known bug.")

let crucible_cmd =
  let families =
    [ ("default", `Default); ("reconf_churn", `Reconf_churn);
      ("dir_churn", `Dir_churn) ]
  in
  Cmd.v
    (Cmd.info "crucible"
       ~doc:
         "Seeded fault-injection soak judged by the invariant oracles; exit 1 \
          on a failure, whose shrunk reproducer and replay line are printed")
    Term.(
      const crucible
      $ Arg.(
          value & opt_all seeds_conv []
          & info [ "seed"; "seeds" ] ~docv:"N|A..B" ~doc:"Seeds (repeatable).")
      $ protos_t
      $ Arg.(
          value & opt (enum families) `Default
          & info [ "family" ]
              ~doc:
                "default, reconf_churn (membership-change heavy) or \
                 dir_churn (the sharded platform; core and core/vr by \
                 default).")
      $ flag [ "storm" ] "dir_churn: the redirect-storm scenario."
      $ flag [ "quick" ] "dir_churn: shorter runs."
      $ Arg.(
          value
          & opt (some (text_conv Scenario.of_string Scenario.to_string)) None
          & info [ "scenario" ] ~docv:"STR" ~doc:"Replay one scenario.")
      $ Arg.(
          value & opt int Oracle.default_lin_budget
          & info [ "lin-budget" ] ~doc:"Linearizability checker budget.")
      $ flag [ "no-shrink" ] "Report failures unshrunk."
      $ mutate_t
      $ flag [ "print" ] "Print the scenarios instead of running them."
      $ file [ "out" ] "Write failure traces here."
      $ file [ "metrics" ] "Write the first run's rsmr-metrics/1 document here."
      $ flag [ "v"; "verbose" ] "Per-run detail.")

let scope_explore ~scope ~max_states ~frontier_dir ~mutation ~out ~verbose
    proto =
  let name = proto.Protocol.name in
  let label = if mutation = None then name else name ^ "+mutation" in
  (* one frontier directory per protocol, not nested by a '/' *)
  let frontier_dir =
    Option.map
      (fun d ->
        Filename.concat d (String.map (function '/' -> '-' | c -> c) name))
      frontier_dir
  in
  let on_progress ~visited ~transitions ~depth =
    if verbose then
      Printf.eprintf "[%s] visited=%d transitions=%d depth=%d\n%!" label
        visited transitions depth
  in
  Printf.printf "exploring %s: scope=[%s]%s\n%!" label (Scope.to_string scope)
    (Option.fold ~none:"" ~some:(Printf.sprintf " max_states=%d") max_states);
  let stats =
    Explore.run ~proto ~scope ~mutation ?max_states ?frontier_dir ~on_progress
      ()
  in
  Printf.printf "[%s] visited=%d transitions=%d max_depth=%d exhausted=%b\n%!"
    label stats.Explore.visited stats.Explore.transitions
    stats.Explore.max_depth stats.Explore.exhausted;
  let cov = stats.Explore.coverage in
  Printf.printf
    "[%s] coverage: wedged=%b activated=%b retired=%b replies=%d \
     max_counter=%d\n%!"
    label cov.Harness.cov_wedged cov.Harness.cov_activated
    cov.Harness.cov_retired cov.Harness.cov_replies
    cov.Harness.cov_max_counter;
  match stats.Explore.violation with
  | None ->
    if stats.Explore.exhausted then
      Printf.printf "[%s] scope exhausted: 0 violations\n%!" label
    else
      Printf.printf
        "[%s] NOT exhausted (state cap hit): 0 violations so far\n%!" label;
    true
  | Some (prop, trace) ->
    let report = Explore.render_counterexample ~proto ~scope ~mutation trace in
    Printf.printf "[%s] VIOLATION: %s\n%s%!" label prop report;
    Option.iter
      (fun f ->
        Out_channel.with_open_text f (fun oc -> output_string oc report);
        Printf.printf "[%s] counterexample written to %s\n%!" label f)
      out;
    false

let scope scope protos max_states frontier_dir mutation out replay verbose =
  let protos = if protos = [] then [ Protocol.core ] else protos in
  List.iter
    (fun p ->
      match (composed_only ~what:"scope" p, mutation) with
      | Protocol.Vr, Some Rsmr_core.Options.Skip_phase1 ->
        refuse
          "scope: --mutate skip-phase1 is a no-op on %s (the VR block has no \
           phase 1): finding no violation would prove nothing"
          p.Protocol.name
      | _ -> ())
    protos;
  match replay with
  | Some trace ->
    List.iter
      (fun proto ->
        print_string
          (Explore.render_counterexample ~proto ~scope ~mutation trace))
      protos
  | None ->
    let clean =
      List.map
        (scope_explore ~scope ~max_states ~frontier_dir ~mutation ~out ~verbose)
        protos
    in
    exit (if List.for_all Fun.id clean then 0 else 1)

let scope_cmd =
  let trace_conv =
    text_conv
      (fun s ->
        Option.to_result ~none:(Printf.sprintf "bad trace %S" s)
          (Choice.seq_of_string s))
      Choice.seq_to_string
  in
  Cmd.v
    (Cmd.info "scope"
       ~doc:
         "Exhaust a bounded scope of composed protocols, checking every safety \
          property in every reachable state; exit 1 on a violation, whose \
          counterexample is printed")
    Term.(
      const scope
      $ Arg.(
          value
          & opt (text_conv Scope.parse Scope.to_string) Scope.minimal
          & info [ "scope" ] ~docv:"SPEC"
              ~doc:
                "minimal, small, or either plus key=value overrides, e.g. \
                 minimal,commands=1,depth=20.")
      $ protos_t
      $ Arg.(
          value & opt (some int) None
          & info [ "max-states" ] ~doc:"Stop after this many states.")
      $ Arg.(
          value & opt (some string) None
          & info [ "frontier-dir" ] ~docv:"DIR"
              ~doc:"Keep the BFS frontier on disk, a directory per protocol.")
      $ mutate_t
      $ file [ "out" ] "Write the counterexample here."
      $ Arg.(
          value & opt (some trace_conv) None
          & info [ "replay"; "trace" ] ~docv:"TRACE"
              ~doc:"Replay one choice trace step by step.")
      $ flag [ "v" ] "Progress on stderr.")

let () =
  let doc = "Reconfigurable SMR from non-reconfigurable building blocks" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "rsmr" ~doc)
          [ experiments_cmd; list_cmd; run_cmd; crucible_cmd; scope_cmd ]))
