(* Crucible CLI: seed-driven randomized fault-injection soak over every
   protocol stack, with scenario replay.

     dune exec test/crucible_main.exe -- --seeds 0..199          # soak
     dune exec test/crucible_main.exe -- --seed 42 --proto core  # one run
     dune exec test/crucible_main.exe -- --seed 42 --print       # show scenario
     dune exec test/crucible_main.exe -- --proto core \
       --scenario 's=42;m=0,1,2;u=0,1,2,3,4;c=2;d=1.5;ev=0.5 crash 1'

   Exit status is 0 iff no invariant oracle failed.  On failure the
   shrunk reproducer and its replay one-liner are printed (and written to
   --out FILE for CI artifact upload). *)

module Scenario = Rsmr_crucible.Scenario
module Generate = Rsmr_crucible.Generate
module Runner = Rsmr_crucible.Runner
module Oracle = Rsmr_crucible.Oracle
module Soak = Rsmr_crucible.Soak
module Churn = Rsmr_shard.Churn
module Protocol = Rsmr_protocol.Protocol

let usage () =
  prerr_endline
    "usage: crucible_main [--seed N | --seeds A..B] [--proto \
     core|matchmaker|stopworld|raft|core/vr|matchmaker/vr|stopworld/vr|all]\n\
    \       [--family default|reconf_churn|dir_churn] [--scenario STR] \
     [--lin-budget N]\n\
    \       [--no-shrink] [--storm] [--quick] [--print]\n\
    \       [--out FILE] [--metrics FILE] [-v]\n\
     reconf_churn family: membership-change-heavy scenarios soaking every\n\
     registered reconfiguration strategy over both blocks.\n\
     dir_churn family: seeded platform-level churn (protos core|vr|all; \
     --storm runs\n\
     the deterministic redirect-storm regression scenario).";
  exit 2

type opts = {
  mutable seeds : int list;
  mutable protos : Protocol.t list;
  mutable protos_raw : string option;
  mutable family : string;
  mutable storm : bool;
  mutable quick : bool;
  mutable scenario : Scenario.t option;
  mutable lin_budget : int;
  mutable shrink : bool;
  mutable print_only : bool;
  mutable out : string option;
  mutable metrics : string option;
  mutable verbose : bool;
}

let parse_seeds s =
  match String.index_opt s '.' with
  | None -> (
    match int_of_string_opt s with
    | Some n -> Some [ n ]
    | None -> None)
  | Some _ -> (
    match String.split_on_char '.' s with
    | [ a; ""; b ] | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when b >= a -> Some (List.init (b - a + 1) (fun i -> a + i))
      | _ -> None)
    | _ -> None)

let parse_protos s =
  match s with
  | "all" -> Some Protocol.crucible
  | s -> Option.map (fun p -> [ p ]) (Protocol.find s)

let parse_args () =
  let o =
    {
      seeds = [];
      protos = Protocol.crucible;
      protos_raw = None;
      family = "default";
      storm = false;
      quick = false;
      scenario = None;
      lin_budget = Oracle.default_lin_budget;
      shrink = true;
      print_only = false;
      out = None;
      metrics = None;
      verbose = false;
    }
  in
  let rec go = function
    | [] -> o
    | "--seed" :: v :: rest | "--seeds" :: v :: rest ->
      (match parse_seeds v with
       | Some seeds -> o.seeds <- o.seeds @ seeds
       | None ->
         Printf.eprintf "bad seed range %S\n" v;
         usage ());
      go rest
    | "--proto" :: v :: rest ->
      o.protos_raw <- Some v;
      go rest
    | "--family" :: v :: rest ->
      (match v with
       | "default" | "dir_churn" | "reconf_churn" -> o.family <- v
       | _ ->
         Printf.eprintf "unknown family %S\n" v;
         usage ());
      go rest
    | "--storm" :: rest ->
      o.storm <- true;
      go rest
    | "--quick" :: rest ->
      o.quick <- true;
      go rest
    | "--scenario" :: v :: rest ->
      (match Scenario.of_string v with
       | Ok sc -> o.scenario <- Some sc
       | Error msg ->
         Printf.eprintf "bad scenario: %s\n" msg;
         usage ());
      go rest
    | "--lin-budget" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n > 0 -> o.lin_budget <- n
       | _ ->
         Printf.eprintf "bad budget %S\n" v;
         usage ());
      go rest
    | "--no-shrink" :: rest ->
      o.shrink <- false;
      go rest
    | "--print" :: rest ->
      o.print_only <- true;
      go rest
    | "--out" :: v :: rest ->
      o.out <- Some v;
      go rest
    | "--metrics" :: v :: rest ->
      o.metrics <- Some v;
      go rest
    | "-v" :: rest | "--verbose" :: rest ->
      o.verbose <- true;
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

let write_failures path failures =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  List.iter (fun f -> Format.fprintf ppf "%a@." Soak.pp_failure f) failures;
  Format.pp_print_flush ppf ();
  close_out oc

(* Platform-level churn: scenarios are fully determined by (proto, seed),
   so there is no shrink pass — the artifact for a failure is the replay
   one-liner plus the report. *)
let run_dir_churn o =
  let protos =
    match o.protos_raw with
    | None | Some "all" -> [ Churn.Core; Churn.Vr ]
    | Some s -> (
      match Churn.proto_of_name s with
      | Some p -> [ p ]
      | None ->
        Printf.eprintf "unknown dir_churn protocol %S (core|vr|all)\n" s;
        usage ())
  in
  let seeds =
    if o.storm then [ Churn.storm_seed ]
    else if o.seeds = [] then begin
      prerr_endline "dir_churn: need --seed/--seeds or --storm";
      usage ()
    end
    else o.seeds
  in
  let t0 = Unix.gettimeofday () in
  let runs = ref 0 and passed = ref 0 in
  let failures = ref [] in
  List.iter
    (fun seed ->
      List.iter
        (fun proto ->
          incr runs;
          let r = Churn.run ~quick:o.quick ~storm:o.storm proto ~seed in
          if Churn.failures r = [] then begin
            incr passed;
            if o.verbose then Format.printf "%a@." Churn.pp_report r
          end
          else begin
            failures := r :: !failures;
            Format.printf "%a@.  replay: %s@." Churn.pp_report r
              (Churn.replay_command proto seed)
          end)
        protos)
    seeds;
  let failures = List.rev !failures in
  Format.printf
    "dir_churn: %d runs (%d seeds x %d protos), %d passed, %d failed, %.1fs \
     wall@."
    !runs (List.length seeds) (List.length protos) !passed
    (List.length failures)
    (Unix.gettimeofday () -. t0);
  (match o.out with
   | Some path when failures <> [] ->
     let oc = open_out path in
     let ppf = Format.formatter_of_out_channel oc in
     List.iter
       (fun r ->
         Format.fprintf ppf "%a@.replay: %s@." Churn.pp_report r
           (Churn.replay_command r.Churn.r_proto r.Churn.r_seed))
       failures;
     Format.pp_print_flush ppf ();
     close_out oc;
     Format.printf "failure traces written to %s@." path
   | Some _ | None -> ());
  exit (if failures = [] then 0 else 1)

let () =
  let o = parse_args () in
  if o.family = "dir_churn" then run_dir_churn o;
  (match o.protos_raw with
   | None -> ()
   | Some v -> (
     match parse_protos v with
     | Some ps -> o.protos <- ps
     | None ->
       Printf.eprintf "unknown protocol %S\n" v;
       usage ()));
  if o.seeds = [] && o.scenario = None then begin
    prerr_endline "need --seed/--seeds or --scenario";
    usage ()
  end;
  let generate =
    if o.family = "reconf_churn" then Generate.reconf_churn_scenario
    else Generate.scenario
  in
  let scenarios =
    match o.scenario with
    | Some sc -> [ sc ]
    | None -> List.map (fun seed -> generate ~seed) o.seeds
  in
  if o.print_only then begin
    List.iter (fun sc -> print_endline (Scenario.to_string sc)) scenarios;
    exit 0
  end;
  let t0 = Unix.gettimeofday () in
  let runs = ref 0 and passed = ref 0 and inconclusive = ref 0 in
  let failures = ref [] in
  List.iter
    (fun sc ->
      List.iter
        (fun proto ->
          incr runs;
          match
            Soak.check_scenario ~lin_budget:o.lin_budget ~shrink:o.shrink
              proto sc
          with
          | Ok outcome ->
            incr passed;
            if Oracle.inconclusives outcome <> [] then incr inconclusive;
            if o.verbose then begin
              let r = Runner.run proto sc in
              Format.printf
                "seed %d %-9s ok (%d/%d ops, %d sim events, vt %.2fs)@.%a@."
                sc.Scenario.seed proto.Protocol.name r.Runner.completed
                r.Runner.submitted r.Runner.events_executed r.Runner.end_time
                Oracle.pp outcome;
              Format.printf "  %a@." Rsmr_obs.Span.pp_summary r.Runner.spans;
              List.iter
                (fun (k, v) ->
                  if v > 1000 then Format.printf "  %s = %d@." k v)
                r.Runner.counters
            end
          | Error f ->
            failures := f :: !failures;
            Format.printf "%a@." Soak.pp_failure f)
        o.protos)
    scenarios;
  let failures = List.rev !failures in
  let wall = Unix.gettimeofday () -. t0 in
  Format.printf
    "crucible: %d runs (%d seeds x %d protos), %d passed, %d failed, %d \
     with inconclusive verdicts (%.1f%%), %.1fs wall@."
    !runs (List.length scenarios) (List.length o.protos) !passed
    (List.length failures) !inconclusive
    (100.0 *. float_of_int !inconclusive /. float_of_int (max 1 !runs))
    wall;
  (match o.out with
   | Some path when failures <> [] ->
     write_failures path failures;
     Format.printf "failure traces written to %s@." path
   | Some _ | None -> ());
  (* One rsmr-metrics/1 artifact for the first (scenario, proto) pair:
     counters, histograms, series and span aggregates of a full replay. *)
  (match (o.metrics, scenarios, o.protos) with
   | Some path, sc :: _, proto :: _ ->
     let r = Runner.run proto sc in
     Rsmr_obs.Registry.save r.Runner.obs ~path;
     Format.printf "metrics written to %s (spans: %a)@." path
       Rsmr_obs.Span.pp_summary r.Runner.spans
   | Some _, _, _ | None, _, _ -> ());
  exit (if failures = [] then 0 else 1)
