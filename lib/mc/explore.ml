type stats = {
  visited : int;
  transitions : int;
  max_depth : int;
  exhausted : bool;
  violation : (string * Choice.t list) option;
  coverage : Harness.coverage;
}

type progress = visited:int -> transitions:int -> depth:int -> unit

let run ~proto ~scope ~mutation ?max_states ?frontier_dir
    ?(on_progress : progress = fun ~visited:_ ~transitions:_ ~depth:_ -> ())
    () =
  let visited : (int64, unit) Hashtbl.t = Hashtbl.create 4096 in
  let n_visited = ref 0 in
  let n_trans = ref 0 in
  let max_depth = ref 0 in
  let violation = ref None in
  let coverage = ref Harness.coverage_empty in
  let capped = ref false in
  let depth_pruned = ref false in
  let replay trace = Harness.replay ~proto ~scope ~mutation trace in
  let note_state fp depth =
    if Hashtbl.mem visited fp then false
    else begin
      Hashtbl.replace visited fp ();
      incr n_visited;
      if depth > !max_depth then max_depth := depth;
      if !n_visited mod 500 = 0 then
        on_progress ~visited:!n_visited ~transitions:!n_trans ~depth;
      true
    end
  in
  let cap_reached () =
    match max_states with
    | Some m when !n_visited >= m ->
      capped := true;
      true
    | _ -> false
  in
  (* Expand one frontier state, identified by (and rebuilt from) its
     choice trace.  Returns the traces of newly-discovered children. *)
  let expand trace =
    let depth = List.length trace in
    if depth >= scope.Scope.depth then begin
      depth_pruned := true;
      []
    end
    else begin
      let h = replay trace in
      let choices = Harness.enabled h in
      let fresh = ref [] in
      List.iteri
        (fun i c ->
          if !violation = None && not (cap_reached ()) then begin
            (* the first child may reuse the harness we already replayed;
               every later child needs a fresh replay of the prefix *)
            let hc = if i = 0 then h else replay trace in
            Harness.apply hc c;
            incr n_trans;
            coverage := Harness.coverage_union !coverage (Harness.coverage hc);
            let ct = trace @ [ c ] in
            match Harness.violation hc with
            | Some v -> violation := Some (v, ct)
            | None ->
              if note_state (Harness.fingerprint hc) (depth + 1) then
                fresh := ct :: !fresh
          end)
        choices;
      List.rev !fresh
    end
  in
  let stop () = !violation <> None || !capped in
  (* seed *)
  let h0 = replay [] in
  ignore (note_state (Harness.fingerprint h0) 0);
  (match Harness.violation h0 with
   | Some v -> violation := Some (v, [])
   | None -> ());
  if not (stop ()) then begin
    match frontier_dir with
    | None ->
      let q = Queue.create () in
      Queue.add [] q;
      while (not (Queue.is_empty q)) && not (stop ()) do
        List.iter (fun ct -> Queue.add ct q) (expand (Queue.take q))
      done
    | Some dir ->
      (* breadth-first with a disk-backed frontier: each depth layer is
         a line file, read back while the next layer streams out, so a
         CI soak's memory stays O(visited fingerprints), not O(frontier
         traces).  The layer files double as uploadable artifacts. *)
      let rec mkdir_p d =
        if not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          (try Sys.mkdir d 0o755 with Sys_error _ -> ())
        end
      in
      mkdir_p dir;
      let layer_file d = Filename.concat dir (Printf.sprintf "layer_%03d.frontier" d) in
      let write_layer d traces =
        let oc = open_out (layer_file d) in
        List.iter
          (fun ct ->
            output_string oc (Choice.seq_to_string ct);
            output_char oc '\n')
          traces;
        close_out oc
      in
      write_layer 0 [ [] ];
      let d = ref 0 in
      let continue = ref true in
      while !continue do
        let ic = open_in (layer_file !d) in
        let next = ref [] in
        let eof = ref false in
        while (not !eof) && not (stop ()) do
          match input_line ic with
          | exception End_of_file -> eof := true
          | line -> (
            match Choice.seq_of_string line with
            | None -> failwith (Printf.sprintf "corrupt frontier line %S" line)
            | Some trace -> next := List.rev_append (expand trace) !next)
        done;
        close_in ic;
        let next = List.rev !next in
        write_layer (!d + 1) next;
        incr d;
        if next = [] || stop () then continue := false
      done
  end;
  {
    visited = !n_visited;
    transitions = !n_trans;
    max_depth = !max_depth;
    (* exhausted means "every reachable state in scope was expanded":
       never true once the state cap cut exploration short.  Pruning at
       the depth bound is part of the scope's definition, so it does
       not negate exhaustion. *)
    exhausted = (not !capped) && !violation = None;
    violation = !violation;
    coverage = !coverage;
  }

let render_counterexample ~proto ~scope ~mutation trace =
  let name =
    match mutation with
    | Some m ->
      List.find_map
        (fun (n, m') -> if m = m' then Some n else None)
        Rsmr_core.Options.mutations
    | None -> None
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "counterexample: %d step(s), proto=%s, scope=[%s]%s\n"
       (List.length trace) proto.Rsmr_protocol.Protocol.name
       (Scope.to_string scope)
       (match name with Some n -> ", mutation=" ^ n | None -> ""));
  let h = Harness.create ~proto ~scope ~mutation () in
  let indent s = "    " ^ String.concat "\n    " (String.split_on_char '\n' s) in
  Buffer.add_string b ("  initial state:\n" ^ indent (Harness.summary h) ^ "\n");
  (try
     List.iteri
       (fun i c ->
         Harness.apply h c;
         Buffer.add_string b (Format.asprintf "  step %d: %a\n" (i + 1) Choice.pp c);
         Buffer.add_string b (indent (Harness.summary h) ^ "\n"))
       trace
   with Harness.Divergent c ->
     Buffer.add_string b
       (Format.asprintf "  REPLAY DIVERGED at %a — trace does not match this \
                         proto/scope/mutation\n"
          Choice.pp c));
  (match Harness.violation h with
   | Some v -> Buffer.add_string b ("violated: " ^ v ^ "\n")
   | None -> Buffer.add_string b "no violation at end of trace\n");
  Buffer.add_string b
    (Printf.sprintf
       "reproduce: dune exec rsmr -- scope --proto %s --scope %s%s --replay \
        '%s'\n"
       proto.Rsmr_protocol.Protocol.name
       (Scope.to_string scope)
       (match name with Some n -> " --mutate " ^ n | None -> "")
       (Choice.seq_to_string trace));
  Buffer.contents b
