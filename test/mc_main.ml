(* Scope CLI: exhaustive explicit-state checking of the composition
   layer within a bounded scope.

     dune exec test/mc_main.exe -- --scope minimal --proto core
     dune exec test/mc_main.exe -- --scope minimal,commands=1 --proto both \
       --frontier-dir _frontier --max-states 200000
     dune exec test/mc_main.exe -- --proto core --mutate first-wedge
     dune exec test/mc_main.exe -- --proto core --replay 's0;t1;d1-2;...'

   Exit status: 0 if every requested exploration finished with no
   violation (whether or not it exhausted the scope — a --max-states
   cap prints "NOT exhausted" but is not an error); 1 if a violation
   was found (the counterexample is printed and, with --out, written to
   a file); 2 on usage errors or a diverging --replay trace. *)

module Scope = Rsmr_mc.Scope
module Choice = Rsmr_mc.Choice
module Harness = Rsmr_mc.Harness
module Explore = Rsmr_mc.Explore
module Strategy = Rsmr_iface.Reconfig_strategy

let usage () =
  prerr_endline
    "usage: mc_main [--scope SPEC] [--proto core|matchmaker|stopworld|both]\n\
    \       [--max-states N] [--frontier-dir DIR]\n\
    \       [--mutate first-wedge|skip-phase1] [--out FILE]\n\
    \       [--replay TRACE] [-v]\n\
     SPEC is 'minimal', 'small', or either plus key=value overrides,\n\
     e.g. 'minimal,commands=1,depth=20' (see Rsmr_mc.Scope).";
  exit 2

type opts = {
  mutable scope : Scope.t;
  mutable protos : Strategy.t list;
  mutable max_states : int option;
  mutable frontier_dir : string option;
  mutable mutation : Rsmr_core.Options.mutation option;
  mutable out : string option;
  mutable replay : Choice.t list option;
  mutable verbose : bool;
}

let parse_args () =
  let o =
    {
      scope = Scope.minimal;
      protos = [ Strategy.composed ];
      max_states = None;
      frontier_dir = None;
      mutation = None;
      out = None;
      replay = None;
      verbose = false;
    }
  in
  let rec go = function
    | [] -> o
    | "--scope" :: v :: rest ->
      (match Scope.parse v with
       | Ok s -> o.scope <- s
       | Error e ->
         prerr_endline e;
         usage ());
      go rest
    | "--proto" :: v :: rest ->
      (match v with
       | "both" -> o.protos <- [ Strategy.composed; Strategy.stopworld ]
       | v -> (
         match Strategy.find v with
         | Some p -> o.protos <- [ p ]
         | None ->
           Printf.eprintf "bad proto %S\n" v;
           usage ()));
      go rest
    | "--max-states" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n > 0 -> o.max_states <- Some n
       | _ ->
         Printf.eprintf "bad --max-states %S\n" v;
         usage ());
      go rest
    | "--frontier-dir" :: v :: rest ->
      o.frontier_dir <- Some v;
      go rest
    | "--mutate" :: v :: rest ->
      (match List.assoc_opt v Rsmr_core.Options.mutations with
       | Some m -> o.mutation <- Some m
       | None ->
         Printf.eprintf "bad mutation %S\n" v;
         usage ());
      go rest
    | "--out" :: v :: rest ->
      o.out <- Some v;
      go rest
    | ("--replay" | "--trace") :: v :: rest ->
      (match Choice.seq_of_string v with
       | Some cs -> o.replay <- Some cs
       | None ->
         Printf.eprintf "bad trace %S\n" v;
         usage ());
      go rest
    | "-v" :: rest ->
      o.verbose <- true;
      go rest
    | a :: _ ->
      Printf.eprintf "unknown argument %S\n" a;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

let run_replay o proto trace =
  print_string
    (Explore.render_counterexample ~proto ~scope:o.scope ~mutation:o.mutation
       trace)

let run_explore o proto =
  let label =
    Printf.sprintf "%s%s"
      proto.Strategy.name
      (if o.mutation <> None then "+mutation" else "")
  in
  let frontier_dir =
    Option.map
      (fun d -> Filename.concat d proto.Strategy.name)
      o.frontier_dir
  in
  let on_progress ~visited ~transitions ~depth =
    if o.verbose then
      Printf.eprintf "[%s] visited=%d transitions=%d depth=%d\n%!" label
        visited transitions depth
  in
  Printf.printf "exploring %s: scope=[%s]%s\n%!" label
    (Scope.to_string o.scope)
    (match o.max_states with
     | Some n -> Printf.sprintf " max_states=%d" n
     | None -> "");
  let stats =
    Explore.run ~proto ~scope:o.scope ~mutation:o.mutation
      ?max_states:o.max_states ?frontier_dir ~on_progress ()
  in
  Printf.printf
    "[%s] visited=%d transitions=%d max_depth=%d exhausted=%b\n%!" label
    stats.Explore.visited stats.Explore.transitions stats.Explore.max_depth
    stats.Explore.exhausted;
  let cov = stats.Explore.coverage in
  Printf.printf
    "[%s] coverage: wedged=%b activated=%b retired=%b replies=%d \
     max_counter=%d\n%!"
    label cov.Harness.cov_wedged cov.Harness.cov_activated
    cov.Harness.cov_retired cov.Harness.cov_replies
    cov.Harness.cov_max_counter;
  (match stats.Explore.violation with
   | None ->
     if stats.Explore.exhausted then
       Printf.printf "[%s] scope exhausted: 0 violations\n%!" label
     else
       Printf.printf "[%s] NOT exhausted (state cap hit): 0 violations so far\n%!"
         label
   | Some (prop, trace) ->
     let report =
       Explore.render_counterexample ~proto ~scope:o.scope ~mutation:o.mutation
         trace
     in
     Printf.printf "[%s] VIOLATION: %s\n%s%!" label prop report;
     Option.iter
       (fun f ->
         let oc = open_out f in
         output_string oc report;
         close_out oc;
         Printf.printf "[%s] counterexample written to %s\n%!" label f)
       o.out);
  stats.Explore.violation = None

let () =
  let o = parse_args () in
  match o.replay with
  | Some trace ->
    run_replay o (List.hd o.protos) trace;
    exit 0
  | None ->
    let ok = List.for_all (fun p -> run_explore o p) o.protos in
    exit (if ok then 0 else 1)
