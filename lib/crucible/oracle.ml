module Service = Rsmr_core.Service
module Protocol = Rsmr_protocol.Protocol
module History = Rsmr_checker.History
module Kv = Rsmr_app.Kv

module type LIN = sig
  type result = Linearizable | Not_linearizable | Inconclusive

  val check : ?max_states:int -> History.t -> result
end

module Lin = Rsmr_checker.Linearizability.Make (Mixed)
module Lin_kv = Rsmr_checker.Linearizability.Make (Kv)

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
  dir_epoch : verdict;
  rebalance : verdict;
}

let default_lin_budget = 400_000

(* Every Mixed command touches one object, and every platform command
   one Kv key; linearizability is local (Herlihy & Wing): the history is
   linearizable iff each object's sub-history is.  Sub-histories, named
   and in order of first appearance. *)
let by_object object_of history =
  let parts = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (op : History.op) ->
      let obj = object_of op.History.cmd in
      match Hashtbl.find_opt parts obj with
      | Some h -> History.add h op
      | None ->
        let h = History.create () in
        History.add h op;
        Hashtbl.replace parts obj h;
        order := (Option.value obj ~default:"undecodable", h) :: !order)
    (History.ops history);
  List.rev !order

let kv_key_of_encoded cmd =
  match Kv.decode_command cmd with
  | Kv.Get k | Kv.Put (k, _) | Kv.Delete k | Kv.Cas (k, _, _) | Kv.Append (k, _)
    ->
    Some ("kv:" ^ k)
  | exception Rsmr_app.Codec.Truncated -> None

(* Any non-linearizable object fails the history; otherwise any blown
   budget (each object gets the whole budget) leaves it inconclusive.
   The platform's history is Kv's, a single service's Mixed's. *)
let check_lin ~budget (r : Runner.report) =
  let (module L : LIN), object_of =
    match r.Runner.scenario.Scenario.shape with
    | Scenario.Service _ -> ((module Lin : LIN), Mixed.object_of_encoded)
    | Scenario.Platform _ -> ((module Lin_kv : LIN), kv_key_of_encoded)
  in
  let rec judge inconclusive = function
    | [] -> (
      match inconclusive with
      | None -> Pass
      | Some obj ->
        Inconclusive
          (Printf.sprintf "search budget (%d states) exhausted on %s" budget
             obj))
    | (obj, h) :: rest -> (
      match L.check ~max_states:budget h with
      | L.Linearizable -> judge inconclusive rest
      | L.Inconclusive ->
        judge (Some (Option.value inconclusive ~default:obj)) rest
      | L.Not_linearizable ->
        Fail
          (Printf.sprintf "%s: %d of the history's %d ops are not linearizable"
             obj (History.length h)
             (History.length r.Runner.history)))
  in
  judge None (by_object object_of r.Runner.history)

let check_exactly_once (r : Runner.report) =
  (* Kv has no counter: on the platform, second replies are the check. *)
  if r.Runner.duplicates > 0 then
    Fail (Printf.sprintf "%d duplicate replies" r.Runner.duplicates)
  else if Option.is_some r.Runner.platform then Pass
  else if not r.Runner.quiesced then
    Inconclusive "commands still outstanding; increment count unsettled"
  else if not r.Runner.converged then
    Inconclusive "members not converged; counter reading unsettled"
  else
    match r.Runner.chains with
    | { Runner.states = []; _ } :: _ | [] ->
      Fail "no member exposes application state"
    | { Runner.states = (_, s) :: _; _ } :: _ ->
      let v = Mixed.counter_value (Mixed.restore s) in
      if v = r.Runner.acked_incr then Pass
      else
        Fail
          (Printf.sprintf
             "counter is %d but clients saw %d acknowledged increment units \
              (%s)"
             v r.Runner.acked_incr
             (if v > r.Runner.acked_incr then "double application"
              else "lost application"))

(* The first chain [check] faults, named when there are several. *)
let per_chain (r : Runner.report) check =
  let named = List.compare_length_with r.Runner.chains 1 > 0 in
  List.find_map
    (fun (c : Runner.chain) ->
      Option.map
        (fun v -> if named then c.Runner.name ^ ": " ^ v else v)
        (check c))
    r.Runner.chains
  |> Option.fold ~none:Pass ~some:(fun v -> Fail v)

let check_epoch_prefix (r : Runner.report) =
  match r.Runner.proto.Protocol.kind with
  | Protocol.Raft -> Skip "native raft has no wedge"
  | Protocol.Composed _ ->
    per_chain r (fun c -> Service.epoch_audit c.Runner.epoch_stats)

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
  let ids ns = String.concat "," (List.map string_of_int ns) in
  let disagreement (c : Runner.chain) =
    if Runner.agrees c then None
    else
      Some
        (Printf.sprintf
           "members %s did not converge to one state (states from %s)"
           (ids c.Runner.members)
           (ids (List.map fst c.Runner.states)))
  in
  if r.Runner.converged then Pass
  else if not r.Runner.quiesced then
    Fail "never quiesced, so convergence was not reached"
  else
    match per_chain r disagreement with
    | Pass -> Fail "every chain agrees, but not for a whole hold"
    | v -> v

(* A platform-only check: [Skip] on a single service. *)
let on_platform (r : Runner.report) check =
  match r.Runner.platform with
  | None -> Skip "single service: no directory or shards"
  | Some p -> Option.fold ~none:Pass ~some:(fun v -> Fail v) (check p)

let check_dir_epoch r =
  on_platform r (fun p ->
      if p.Runner.dir_regressions = 0 then None
      else
        Some
          (Printf.sprintf "%d lookup replies went backwards"
             p.Runner.dir_regressions))

let check_rebalance r =
  on_platform r (fun p ->
      if p.Runner.rebalances = 0 || p.Runner.rebalances_done > 0 then None
      else
        Some
          (Printf.sprintf "0 of %d started rebalances completed"
             p.Runner.rebalances))

let check ?(lin_budget = default_lin_budget) (r : Runner.report) =
  {
    lin = check_lin ~budget:lin_budget r;
    exactly_once = check_exactly_once r;
    epoch_prefix = check_epoch_prefix r;
    residual = check_residual r;
    convergence = check_convergence r;
    redirects = check_redirects r;
    dir_epoch = check_dir_epoch r;
    rebalance = check_rebalance r;
  }

let named o =
  [
    ("linearizability", o.lin);
    ("exactly-once", o.exactly_once);
    ("epoch-prefix", o.epoch_prefix);
    ("residual-conservation", o.residual);
    ("convergence", o.convergence);
    ("redirect-bound", o.redirects);
    ("dir-epoch-monotone", o.dir_epoch);
    ("rebalance-progress", o.rebalance);
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
