module Protocol = Rsmr_protocol.Protocol
module Options = Rsmr_core.Options

type failure = {
  f_proto : Protocol.t;
  f_mutation : Options.mutation option;
  f_seed : int;
  f_scenario : Scenario.t;
  f_failed : (string * string) list;
  f_shrunk : Scenario.t;
  f_shrunk_failed : (string * string) list;
  f_attempts : int;
}

type summary = {
  runs : int;
  passed : int;
  inconclusive : int;
  failures : failure list;
}

let replay_command ?mutation proto scenario =
  let mutate (name, m) = if Some m = mutation then " --mutate " ^ name else "" in
  Printf.sprintf "dune exec rsmr -- crucible --proto %s%s --scenario '%s'"
    proto.Protocol.name
    (String.concat "" (List.map mutate Options.mutations))
    (Scenario.to_string scenario)

let run_scenario ?lin_budget ?mutation proto scenario =
  let report = Runner.run ?mutation proto scenario in
  (Oracle.check ?lin_budget report, report)

let check_scenario ?lin_budget ?(shrink = true) ?mutation proto scenario =
  let run_scenario = run_scenario ?mutation in
  let outcome, report = run_scenario ?lin_budget proto scenario in
  let verdict =
    match Oracle.failures outcome with
    | [] -> Ok outcome
    | failed ->
      (* Shrink against "any oracle fails": chasing one specific oracle
         tends to dead-end when a smaller scenario trips an even earlier
         invariant, and any surviving failure is a valid reproducer. *)
      let still_fails sc =
        let o, _ = run_scenario ?lin_budget proto sc in
        Oracle.failures o <> []
      in
      let shrunk, attempts =
        if shrink then Shrink.minimize ~still_fails scenario else (scenario, 0)
      in
      let shrunk_outcome, _ = run_scenario ?lin_budget proto shrunk in
      Error
        {
          f_proto = proto;
          f_mutation = mutation;
          f_seed = scenario.Scenario.seed;
          f_scenario = scenario;
          f_failed = failed;
          f_shrunk = shrunk;
          f_shrunk_failed = Oracle.failures shrunk_outcome;
          f_attempts = attempts;
        }
  in
  (report, verdict)

let soak ?lin_budget ?shrink ?mutation ?(on_run = fun _ _ _ _ -> ()) ~protos
    ~scenarios () =
  let runs = ref 0 and passed = ref 0 and inconclusive = ref 0 in
  let failures = ref [] in
  List.iter
    (fun sc ->
      List.iter
        (fun proto ->
          incr runs;
          let report, result =
            check_scenario ?lin_budget ?shrink ?mutation proto sc
          in
          (match result with
           | Ok outcome ->
             incr passed;
             if Oracle.inconclusives outcome <> [] then incr inconclusive
           | Error failure -> failures := failure :: !failures);
          on_run proto sc report result)
        protos)
    scenarios;
  {
    runs = !runs;
    passed = !passed;
    inconclusive = !inconclusive;
    failures = List.rev !failures;
  }

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>%s seed %d FAILED: %a@,  scenario: %a@,  shrunk (%d re-runs): %a@,\
    \  shrunk failure: %a@,  replay: %s@]"
    f.f_proto.Protocol.name f.f_seed
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (name, msg) -> Format.fprintf ppf "%s (%s)" name msg))
    f.f_failed Scenario.pp f.f_scenario f.f_attempts Scenario.pp f.f_shrunk
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (name, msg) -> Format.fprintf ppf "%s (%s)" name msg))
    f.f_shrunk_failed
    (replay_command ?mutation:f.f_mutation f.f_proto f.f_shrunk)
