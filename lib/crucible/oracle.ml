module Service = Rsmr_core.Service
module Protocol = Rsmr_protocol.Protocol
module History = Rsmr_checker.History
module Lin = Rsmr_checker.Linearizability.Make (Mixed)

type verdict =
  | Pass
  | Fail of string
  | Inconclusive of string
  | Skip of string

type outcome = {
  lin : verdict;
  exactly_once : verdict;
  epoch_prefix : verdict;
  residual : verdict;
  convergence : verdict;
  redirects : verdict;
}

let default_lin_budget = 400_000

(* Every Mixed command touches one object, and linearizability is local
   (Herlihy & Wing): the history is linearizable iff each object's
   sub-history is.  Sub-histories, named and in order of first
   appearance. *)
let by_object history =
  let parts = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (op : History.op) ->
      let obj = Mixed.object_of_encoded op.History.cmd in
      match Hashtbl.find_opt parts obj with
      | Some h -> History.add h op
      | None ->
        let h = History.create () in
        History.add h op;
        Hashtbl.replace parts obj h;
        order := (Option.value obj ~default:"undecodable", h) :: !order)
    (History.ops history);
  List.rev !order

(* Any non-linearizable object fails the history; otherwise any blown
   budget (each object gets the whole budget) leaves it inconclusive. *)
let check_lin ~budget (r : Runner.report) =
  let rec judge inconclusive = function
    | [] -> (
      match inconclusive with
      | None -> Pass
      | Some obj ->
        Inconclusive
          (Printf.sprintf "search budget (%d states) exhausted on %s" budget
             obj))
    | (obj, h) :: rest -> (
      match Lin.check ~max_states:budget h with
      | Lin.Linearizable -> judge inconclusive rest
      | Lin.Inconclusive ->
        judge (Some (Option.value inconclusive ~default:obj)) rest
      | Lin.Not_linearizable ->
        Fail
          (Printf.sprintf "%s: %d of the history's %d ops are not linearizable"
             obj (History.length h)
             (History.length r.Runner.history)))
  in
  judge None (by_object r.Runner.history)

let check_exactly_once (r : Runner.report) =
  if not r.Runner.quiesced then
    Inconclusive "commands still outstanding; increment count unsettled"
  else if not r.Runner.converged then
    Inconclusive "members not converged; counter reading unsettled"
  else
    match r.Runner.final_counter with
    | None -> Fail "no member exposes application state"
    | Some v when v = r.Runner.acked_incr -> Pass
    | Some v ->
      Fail
        (Printf.sprintf
           "counter is %d but clients saw %d acknowledged increment units \
            (%s)"
           v r.Runner.acked_incr
           (if v > r.Runner.acked_incr then "double application"
            else "lost application"))

let check_epoch_prefix (r : Runner.report) =
  match r.Runner.proto.Protocol.kind with
  | Protocol.Raft -> Skip "native raft has no wedge"
  | Protocol.Composed _ -> (
    match Service.epoch_audit r.Runner.epoch_stats with
    | None -> Pass
    | Some v -> Fail v)

let counter_of (r : Runner.report) name =
  match List.assoc_opt name r.Runner.counters with Some n -> n | None -> 0

let check_residual (r : Runner.report) =
  if not r.Runner.quiesced then
    Fail
      (Printf.sprintf "%d of %d submitted commands never completed"
         (r.Runner.submitted - r.Runner.completed)
         r.Runner.submitted)
  else
    match r.Runner.proto.Protocol.kind with
    | Protocol.Raft -> Pass (* reduces to the no-lost-command check above *)
    | Protocol.Composed _ ->
      let resid = counter_of r "residuals" in
      let resub = counter_of r "residuals_resubmitted" in
      if resub > resid then
        Fail
          (Printf.sprintf "%d residuals resubmitted but only %d observed"
             resub resid)
      else Pass

let check_redirects (r : Runner.report) =
  Option.fold ~none:Pass ~some:(fun msg -> Fail msg)
    (Rsmr_client.Endpoint.redirect_storm ~redirects:(counter_of r "redirects")
       ~submitted:r.Runner.submitted)

let check_convergence (r : Runner.report) =
  if r.Runner.converged then Pass
  else if not r.Runner.quiesced then
    Fail "never quiesced, so convergence was not reached"
  else
    let missing =
      List.filter
        (fun m -> not (List.mem_assoc m r.Runner.final_states))
        r.Runner.final_members
    in
    Fail
      (Printf.sprintf
         "members %s did not converge to one state (%d states collected%s)"
         (String.concat "," (List.map string_of_int r.Runner.final_members))
         (List.length r.Runner.final_states)
         (match missing with
          | [] -> ""
          | ms ->
            Printf.sprintf "; no state from %s"
              (String.concat "," (List.map string_of_int ms))))

let check ?(lin_budget = default_lin_budget) (r : Runner.report) =
  {
    lin = check_lin ~budget:lin_budget r;
    exactly_once = check_exactly_once r;
    epoch_prefix = check_epoch_prefix r;
    residual = check_residual r;
    convergence = check_convergence r;
    redirects = check_redirects r;
  }

let named o =
  [
    ("linearizability", o.lin);
    ("exactly-once", o.exactly_once);
    ("epoch-prefix", o.epoch_prefix);
    ("residual-conservation", o.residual);
    ("convergence", o.convergence);
    ("redirect-bound", o.redirects);
  ]

let failures o =
  List.filter_map
    (fun (name, v) -> match v with Fail msg -> Some (name, msg) | _ -> None)
    (named o)

let inconclusives o =
  List.filter_map
    (fun (name, v) ->
      match v with Inconclusive msg -> Some (name, msg) | _ -> None)
    (named o)

let ok o = failures o = []

let pp_verdict ppf = function
  | Pass -> Format.pp_print_string ppf "pass"
  | Fail msg -> Format.fprintf ppf "FAIL (%s)" msg
  | Inconclusive msg -> Format.fprintf ppf "inconclusive (%s)" msg
  | Skip msg -> Format.fprintf ppf "n/a (%s)" msg

let pp ppf o =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun ppf (name, v) ->
         Format.fprintf ppf "%-22s %a" name pp_verdict v))
    (named o)
