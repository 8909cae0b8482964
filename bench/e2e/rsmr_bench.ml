(* rsmr-bench: the end-to-end benchmark.

     rsmr_bench.exe [--workload NAME|all] [--seed N] [--seconds S]
                    [--reps N] [--trace 0|1] [--smoke] [--out PATH]

   Each rep of a workload runs in a fresh child process (this same
   executable, re-run with --child), one after another.  Virtual-time
   metrics and counts must come out bit-identical in every rep, and the
   traced stacks must reproduce the production stacks' virtual-time
   metrics exactly; host metrics are the median over reps.  The last line
   of standard output is one JSON object: {"correct", "attempted",
   "failed", "metrics"}, with the end-to-end metrics under --trace 0 and
   the per-layer metrics under --trace 1. *)

module W = Workloads

(* Names and units; BENCHMARK.json adds each metric's direction and, for
   the end-to-end ones, its regression bound. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("host_ns_per_cmd", "ns");
    ("alloc_words_per_cmd", "words");
    ("heap_peak_mb", "MB");
    ("throughput_cps", "cmd/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("answered_frac", "ratio");
    ("msgs_per_cmd", "msgs");
    ("bytes_per_cmd", "B");
    ("outage_ms", "ms");
  ]

let per_layer =
  [
    ("core.decide.self_ns_per_cmd", "ns");
    ("core.decide.calls_per_cmd", "count");
    ("core.egress.self_ns_per_cmd", "ns");
    ("core.egress.calls_per_cmd", "count");
    ("core.wedged_window_ms", "ms");
    ("core.transfer_bytes_per_reconfig", "B");
    ("core.residuals_per_reconfig", "count");
    ("core.requests_per_reply", "ratio");
    ("core.redirects_per_cmd", "ratio");
    ("smr.block.self_ns_per_cmd", "ns");
    ("smr.block.calls_per_cmd", "count");
    ("smr.codec.self_ns_per_cmd", "ns");
    ("smr.codec.calls_per_cmd", "count");
    ("smr.accept_msgs_per_cmd", "msgs");
    ("app.apply.self_ns_per_cmd", "ns");
    ("app.apply.calls_per_cmd", "count");
    ("app.codec.self_ns_per_cmd", "ns");
    ("app.codec.calls_per_cmd", "count");
    ("app.snapshot.self_ns_per_reconfig", "ns");
    ("app.snapshot.bytes_per_reconfig", "B");
    ("client.submit.self_ns_per_cmd", "ns");
    ("shard.redirects_per_cmd", "ratio");
    ("shard.retries_per_cmd", "ratio");
    ("shard.dir_lookups", "count");
    ("net.client_msgs_per_cmd", "msgs");
    ("net.block_msgs_per_cmd", "msgs");
    ("net.ctrl_bytes_per_reconfig", "B");
    ("sim.events_per_cmd", "count");
    ("gc.promoted_words_per_cmd", "words");
    ("gc.major_collections", "count");
    ("untimed.self_ns_per_cmd", "ns");
    ("workload.driver.self_ns_per_cmd", "ns");
    ("trace.overhead_frac", "ratio");
  ]

(* Units of the values printed besides the two metric sets. *)
let other_units =
  [
    ("calibration_ms", "ms");
    ("latency_tail_pct", "%");
    ("latency_tail_samples", "count");
    ("slo_rate_rps", "1/s");
  ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer @ other_units) with
  | Some u -> u
  | None ->
    (* the per-step values of overload *)
    if String.ends_with ~suffix:"_ms" name then "ms" else "cmd/s"

(* ------------------------------------------------------------ child side *)

let kind_name = function
  | W.Virtual -> "virtual"
  | W.Alloc -> "alloc"
  | W.Host -> "host"

let kind_of_name = function
  | "virtual" -> Some W.Virtual
  | "alloc" -> Some W.Alloc
  | "host" -> Some W.Host
  | _ -> None

let run_child ~workload ~seed ~traced ~scale ~spans =
  let r = W.run workload ~traced ~scale ~seed in
  List.iter
    (fun (m : W.metric) ->
      Printf.printf "m %s %s %h\n" (kind_name m.W.kind) m.W.name m.W.value)
    r.W.metrics;
  List.iter
    (fun (c : W.check) ->
      Printf.printf "c %d %s %s\n" (Bool.to_int c.W.ok) c.W.check c.W.detail)
    r.W.checks;
  Printf.printf "n %d %d\n" r.W.submitted r.W.completed;
  match spans with
  | Some path when traced -> Layer_trace.write_json path
  | Some _ | None -> ()

(* ----------------------------------------------------------- parent side *)

type rep = {
  metrics : (string * (W.kind * float)) list;
  checks : W.check list;
  submitted : int;
  completed : int;
}

let parse_rep lines =
  List.fold_left
    (fun rep line ->
      match String.split_on_char ' ' line with
      | [ "m"; k; name; v ] -> (
        match (kind_of_name k, float_of_string_opt v) with
        | Some kind, Some value ->
          { rep with metrics = (name, (kind, value)) :: rep.metrics }
        | _ -> rep)
      | "c" :: ok :: name :: detail ->
        let c =
          { W.check = name; ok = ok = "1"; detail = String.concat " " detail }
        in
        { rep with checks = c :: rep.checks }
      | [ "n"; s; c ] ->
        {
          rep with
          submitted = int_of_string s;
          completed = int_of_string c;
        }
      | _ -> rep)
    { metrics = []; checks = []; submitted = 0; completed = 0 }
    lines
  |> fun rep ->
  { rep with metrics = List.rev rep.metrics; checks = List.rev rep.checks }

exception Child_failed of string

let spawn_child ~workload ~seed ~traced ~scale ~spans =
  let args =
    [
      Sys.executable_name; "--child"; "--workload"; workload; "--seed";
      string_of_int seed; "--traced"; (if traced then "1" else "0");
      "--scale"; (match scale with W.Full -> "full" | W.Smoke -> "smoke");
    ]
    @ match spans with Some p -> [ "--spans"; p ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> parse_rep lines
  | Unix.WEXITED n ->
    raise (Child_failed (Printf.sprintf "%s rep exited with %d" workload n))
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    raise (Child_failed (Printf.sprintf "%s rep killed by signal %d" workload n))

let median = function
  | [] -> Float.nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

type value = {
  v : float;
  kind : W.kind;
  raw : float list;  (* one per rep, in run order *)
}

type outcome = {
  workload : string;
  untraced : (string * value) list;
  traced : (string * value) list;
  n_untraced : int;
  n_traced : int;
  checks : W.check list;  (* workload checks, then the guard *)
  submitted : int;
  failed : int;
}

(* Fold reps into one value per metric: the median for host readings, and
   the common value for deterministic ones, which must repeat exactly. *)
let combine ~label reps =
  match reps with
  | [] -> ([], [])
  | first :: _ ->
    List.fold_right
      (fun (name, (kind, _)) (values, guard) ->
        let raw =
          List.filter_map (fun r -> Option.map snd (List.assoc_opt name r.metrics)) reps
        in
        match kind with
        | W.Host -> ((name, { v = median raw; kind; raw }) :: values, guard)
        | W.Virtual | W.Alloc ->
          let v = List.hd raw in
          let ok =
            List.length raw = List.length reps && List.for_all (same_bits v) raw
          in
          let guard =
            if ok then guard
            else
              {
                W.check = Printf.sprintf "determinism.%s.%s" label name;
                ok = false;
                detail =
                  String.concat " " (List.map (Printf.sprintf "%.17g") raw);
              }
              :: guard
          in
          ((name, { v; kind; raw }) :: values, guard))
      first.metrics ([], [])

(* Every virtual-time metric and count of the traced stacks must equal the
   production stacks' value. *)
let transparency untraced traced =
  List.filter_map
    (fun (name, t) ->
      match (t.kind, List.assoc_opt name untraced) with
      | W.Virtual, Some u when not (same_bits u.v t.v) ->
        Some
          {
            W.check = "transparency." ^ name;
            ok = false;
            detail = Printf.sprintf "traced %.17g, untraced %.17g" t.v u.v;
          }
      | _ -> None)
    traced

let merge_checks reps =
  (* A check passes only if it passed in every rep; keep first-seen order. *)
  List.fold_left
    (fun acc (r : rep) ->
      List.fold_left
        (fun acc (c : W.check) ->
          match List.partition (fun (d : W.check) -> d.W.check = c.W.check) acc with
          | [ d ], rest when d.W.ok && not c.W.ok -> rest @ [ c ]
          | [], _ -> acc @ [ c ]
          | _ -> acc)
        acc r.checks)
    [] reps

let now_s () = float_of_int (Layer_trace.now_ns ()) *. 1e-9

(* Run reps one after another: at least [min_reps] of each needed stack,
   then more while the next one is expected to fit in [seconds]. *)
let run_workload ~workload ~seed ~scale ~trace ~min_reps ~seconds ~spans =
  let t0 = now_s () in
  let untraced = ref [] and traced = ref [] in
  let rep_time = ref 0.0 in
  let enough () =
    List.length !untraced >= min_reps
    && ((not trace) || List.length !traced >= min_reps)
  in
  let rec loop i =
    let elapsed = now_s () -. t0 in
    if (not (enough ())) || elapsed +. !rep_time <= seconds then begin
      let use_traced = trace && i mod 2 = 1 in
      let s0 = now_s () in
      let r = spawn_child ~workload ~seed ~traced:use_traced ~scale ~spans:None in
      rep_time := Float.max !rep_time (now_s () -. s0);
      if use_traced then traced := r :: !traced else untraced := r :: !untraced;
      loop (i + 1)
    end
  in
  loop 0;
  (* The span dump comes from one more traced rep, left out of the
     statistics: its extra argument alone shifts the child's GC timing. *)
  if trace && spans <> None then
    ignore (spawn_child ~workload ~seed ~traced:true ~scale ~spans);
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let u, guard_u = combine ~label:"untraced" untraced in
  let t, guard_t = combine ~label:"traced" traced in
  let t =
    match (List.assoc_opt "host_ns_per_cmd" u, List.assoc_opt "host_ns_per_cmd" t) with
    | Some hu, Some ht when trace ->
      t
      @ [
          ( "trace.overhead_frac",
            { v = (ht.v /. hu.v) -. 1.0; kind = W.Host; raw = [] } );
        ]
    | _ -> t
  in
  let guard = guard_u @ guard_t @ transparency u t in
  let first = List.hd untraced in
  {
    workload;
    untraced = u;
    traced = t;
    n_untraced = List.length untraced;
    n_traced = List.length traced;
    checks =
      merge_checks (untraced @ traced)
      @ (if guard = [] then
           [ { W.check = "guard"; ok = true; detail = "deterministic and transparent" } ]
         else guard);
    submitted = first.submitted;
    failed = first.submitted - first.completed;
  }

(* --------------------------------------------------------------- output *)

let is_e2e name = List.mem_assoc name end_to_end

let print_outcome o =
  Printf.printf "== %s: %d production rep(s), %d traced rep(s)\n" o.workload
    o.n_untraced o.n_traced;
  let show group values =
    List.iter
      (fun (name, x) ->
        Printf.printf "  %-6s %-36s %16.6g %-6s (%s)\n" group name x.v
          (unit_of name) (kind_name x.kind))
      values
  in
  let layer_of values = List.filter (fun (n, _) -> List.mem_assoc n per_layer) values in
  show "e2e" (List.filter (fun (n, _) -> is_e2e n) o.untraced);
  show "info"
    (List.filter
       (fun (n, _) -> not (is_e2e n || List.mem_assoc n per_layer))
       o.untraced);
  show "layer" (layer_of (if o.traced = [] then o.untraced else o.traced));
  List.iter
    (fun (c : W.check) ->
      Printf.printf "check.%s %s%s\n" c.W.check
        (if c.W.ok then "ok" else "FAILED")
        (if c.W.detail = "" then "" else " (" ^ c.W.detail ^ ")"))
    o.checks

(* One line per workload, plus one per failed check. *)
let print_smoke o =
  match List.filter (fun (c : W.check) -> not c.W.ok) o.checks with
  | [] ->
    Printf.printf "smoke %s: %d checks ok\n" o.workload (List.length o.checks)
  | failed ->
    List.iter
      (fun (c : W.check) ->
        Printf.printf "smoke %s: check.%s FAILED (%s)\n" o.workload c.W.check
          c.W.detail)
      failed

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s = "\"" ^ String.escaped s ^ "\""

let json_metrics names values =
  String.concat ", "
    (List.filter_map
       (fun name ->
         Option.map
           (fun x ->
             Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
               (json_string name) (json_float x.v)
               (json_string (unit_of name)))
           (List.assoc_opt name values))
       names)

let correct o = List.for_all (fun (c : W.check) -> c.W.ok) o.checks

(* The rsmr-bench/2 document: the run's settings, every metric with its
   unit and kind, and the per-rep host readings next to each median. *)
let write_doc path ~mode ~seed ~min_reps ~seconds outcomes =
  let b = Buffer.create 8192 in
  let p fmt = Printf.bprintf b fmt in
  p "{\n  \"schema\": \"rsmr-bench/2\",\n  \"mode\": %s,\n" (json_string mode);
  p "  \"seed\": %d,\n  \"min_reps\": %d,\n  \"seconds\": %s,\n" seed min_reps
    (json_float seconds);
  p "  \"ocaml_version\": %s,\n  \"nproc\": %d,\n" (json_string Sys.ocaml_version)
    (Domain.recommended_domain_count ());
  p "  \"workloads\": {";
  List.iteri
    (fun i o ->
      p "%s\n    %s: {\n" (if i = 0 then "" else ",") (json_string o.workload);
      p "      \"correct\": %b, \"reps\": %d, \"traced_reps\": %d,\n" (correct o)
        o.n_untraced o.n_traced;
      p "      \"submitted\": %d, \"failed\": %d,\n" o.submitted o.failed;
      p "      \"checks\": {%s},\n"
        (String.concat ", "
           (List.map
              (fun (c : W.check) ->
                Printf.sprintf "%s: %b" (json_string c.W.check) c.W.ok)
              o.checks));
      let section name values =
        p "      %s: {%s}" (json_string name)
          (String.concat ","
             (List.map
                (fun (n, x) ->
                  Printf.sprintf
                    "\n        %s: {\"value\": %s, \"unit\": %s, \"kind\": %s, \
                     \"raw\": [%s]}"
                    (json_string n) (json_float x.v) (json_string (unit_of n))
                    (json_string (kind_name x.kind))
                    (String.concat ", " (List.map json_float x.raw)))
                values))
      in
      section "production" o.untraced;
      p ",\n";
      section "traced" o.traced;
      p "\n    }")
    outcomes;
  p "\n  }\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc

(* ------------------------------------------------------------------ main *)

let usage =
  "usage: rsmr_bench.exe [--workload steady|overload|reconfig|sharded|all] \
   [--seed N] [--seconds S] [--reps N] [--trace 0|1] [--smoke] [--out PATH]"

let die msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  reps : int;
  trace : bool;
  smoke : bool;
  out : string option;
  child : bool;
  child_traced : bool;
  scale : W.scale;
  spans : string option;
}

let parse argv =
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die (flag ^ ": not an integer")
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0.0 -> go { o with seconds = s } rest
      | _ -> die "--seconds: not a non-negative number")
    | "--reps" :: v :: rest ->
      let n = int_arg "--reps" v in
      if n < 1 then die "--reps: must be at least 1";
      go { o with reps = n } rest
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> go { o with trace = false } rest
      | "1" -> go { o with trace = true } rest
      | _ -> die "--trace: 0 or 1")
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--out" :: v :: rest -> go { o with out = Some v } rest
    | "--child" :: rest -> go { o with child = true } rest
    | "--traced" :: v :: rest -> go { o with child_traced = v = "1" } rest
    | "--scale" :: v :: rest ->
      go { o with scale = (if v = "smoke" then W.Smoke else W.Full) } rest
    | "--spans" :: v :: rest -> go { o with spans = Some v } rest
    | arg :: _ -> die ("unknown or incomplete argument: " ^ arg)
  in
  let o =
    go
      {
        workload = "all";
        seed = 3;
        seconds = 0.0;
        reps = 3;
        trace = false;
        smoke = false;
        out = None;
        child = false;
        child_traced = false;
        scale = W.Full;
        spans = None;
      }
      (List.tl (Array.to_list argv))
  in
  if o.workload <> "all" && not (List.mem o.workload W.names) then
    die ("unknown workload: " ^ o.workload);
  o

let () =
  let o = parse Sys.argv in
  if o.child then
    run_child ~workload:o.workload ~seed:o.seed ~traced:o.child_traced
      ~scale:o.scale ~spans:o.spans
  else begin
    let workloads = if o.workload = "all" then W.names else [ o.workload ] in
    let scale, trace, min_reps, seconds =
      if o.smoke then (W.Smoke, true, 1, 0.0)
      else (W.Full, o.trace, o.reps, o.seconds)
    in
    let mode = if o.smoke then "smoke" else if trace then "trace" else "full" in
    Option.iter
      (fun out ->
        let dir = Filename.dirname out in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
      o.out;
    let spans_path w =
      Option.map
        (fun out -> Filename.remove_extension out ^ "." ^ w ^ ".spans.json")
        o.out
    in
    let outcomes =
      try
        List.map
          (fun w ->
            let oc =
              run_workload ~workload:w ~seed:o.seed ~scale ~trace ~min_reps
                ~seconds ~spans:(spans_path w)
            in
            (if o.smoke then print_smoke else print_outcome) oc;
            oc)
          workloads
      with Child_failed msg ->
        prerr_endline ("rsmr_bench: " ^ msg);
        exit 1
    in
    Option.iter
      (fun path -> write_doc path ~mode ~seed:o.seed ~min_reps ~seconds outcomes)
      o.out;
    let ok = List.for_all correct outcomes in
    if o.smoke then exit (if ok then 0 else 1);
    let attempted = List.fold_left (fun a oc -> a + oc.submitted) 0 outcomes in
    let failed = List.fold_left (fun a oc -> a + oc.failed) 0 outcomes in
    let metrics =
      match outcomes with
      | [ oc ] when trace ->
        json_metrics (List.map fst per_layer) oc.traced
      | [ oc ] -> json_metrics (List.map fst end_to_end) oc.untraced
      | _ ->
        String.concat ", "
          (List.map
             (fun (oc : outcome) ->
               Printf.sprintf "%s: {%s}" (json_string oc.workload)
                 (json_metrics (List.map fst end_to_end) oc.untraced))
             outcomes)
    in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      ok attempted failed metrics;
    if not ok then exit 1
  end
