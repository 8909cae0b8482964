(* dir_churn: seeded fault scenarios against the *platform* — crash and
   partition the replicated directory's own replicas while cross-shard
   rebalances are in flight, under client load on every shard.

   The oracles are platform-level: directory-epoch monotonicity as
   observed by clients (the replicated directory is linearizable, so a
   lookup must never report an older configuration than a previous
   lookup), exactly-once replies, bounded redirect traffic (the PR-4
   retry-storm shape), eventual completion after the endgame repair,
   per-shard replica convergence, and the epoch audit
   ({!Rsmr_core.Service.epoch_audit}) of every epoch chain. *)

module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Node_id = Rsmr_net.Node_id
module Keys = Rsmr_workload.Keys
module Driver = Rsmr_workload.Driver
module Kv = Rsmr_app.Kv
module Protocol = Rsmr_protocol.Protocol

let protocols = [ Protocol.core; Protocol.core_vr ]

type report = {
  r_proto : Protocol.t;
  r_seed : int;
  r_commands : int;
  r_replies : int;
  r_rebalances : int;
  r_redirects : int;
  r_regressions : int;
  r_failures : (string * string) list;
}

let failures r = r.r_failures

let pp_report ppf r =
  Format.fprintf ppf "dir_churn %s seed=%d cmds=%d replies=%d reb=%d rdr=%d %s"
    r.r_proto.Protocol.name r.r_seed r.r_commands r.r_replies r.r_rebalances
    r.r_redirects
    (if r.r_failures = [] then "PASS"
     else
       String.concat "; "
         (List.map (fun (n, d) -> n ^ ": " ^ d) r.r_failures))

let replay_command (proto : Protocol.t) seed =
  Printf.sprintf
    "dune exec rsmr -- crucible --family dir_churn --proto %s --seed %d"
    proto.Protocol.name seed

(* The harness is the same for both blocks; only the platform functor
   instantiation differs.  The protocol's strategy drives every service
   of the platform, the directory's included. *)
module Run (P : Platform.S) = struct
  let gen_command ~n_keys rng =
    let keys = Keys.zipf ~n:n_keys ~theta:0.8 in
    let key () = Keys.key_name (Keys.sample keys rng) in
    fun ~client:_ ~seq:_ ->
      if Rng.float rng 1.0 < 0.5 then Kv.encode_command (Kv.Get (key ()))
      else
        Kv.encode_command
          (Kv.Put (key (), Printf.sprintf "v%d" (Rng.int rng 1_000_000)))

  let go ~quick ~storm ~strategy proto ~seed =
    let engine = Engine.create ~seed () in
    let rng = Rng.split (Engine.rng engine) in
    let t_end = if quick then 3.0 else 6.0 in
    let pool = [ 0; 1; 2; 3; 4; 5 ] in
    let shards = [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] in
    let dir_members = [ 0; 2; 4 ] in
    let n_keys = 1000 in
    let pf =
      P.create ~engine ~latency:Rsmr_net.Latency.lan
        ~options:{ Rsmr_core.Options.default with Rsmr_core.Options.strategy }
        ~pool ~shards ~dir_members
        ~keyspace:(Keyspace.ranges ~shards:2 ~n_keys)
        ()
    in
    (* Load from 0.2 s to [t_end], 2 requests outstanding per client. *)
    let load =
      Driver.run_closed ~cluster:(P.cluster pf) ~n_clients:4
        ~first_client_id:(P.first_client_id pf) ~window:2
        ~gen:(gen_command ~n_keys rng) ~start:0.2 ~duration:(t_end -. 0.2) ()
    in
    let pending () = load.Driver.submitted - load.Driver.completed in
    let reb_done = ref 0 and reb_tried = ref 0 in
    let rebalance_at t0 from_ =
      let to_ = 1 - from_ in
      ignore
        (Engine.at engine ~time:t0 (fun () ->
             let donors = P.shard_members pf from_ in
             let takers = P.shard_members pf to_ in
             let eligible =
               List.filter
                 (fun n -> not (List.exists (Node_id.equal n) takers))
                 donors
             in
             match eligible with
             | [] -> ()
             | _ ->
               let node =
                 List.nth eligible (Rng.int rng (List.length eligible))
               in
               incr reb_tried;
               P.rebalance pf ~node ~from_ ~to_
                 ~on_done:(fun ok -> if ok then incr reb_done)
                 ()))
    in
    if storm then begin
      (* The PR-4 redirect-storm shape, against the replicated directory:
         black the directory out, then rebalance both shards under it so
         every client's cached configuration goes stale mid-flight.  The
         endpoints must ride redirect hints with bounded traffic and
         drain once the directory heals. *)
      let t0 = if quick then 0.8 else 1.0 in
      let dur = if quick then 1.2 else 2.0 in
      ignore
        (Engine.at engine ~time:t0 (fun () -> P.isolate_dir pf dir_members));
      ignore (Engine.at engine ~time:(t0 +. dur) (fun () -> Rsmr_iface.Overlay.heal (P.control pf)));
      rebalance_at (t0 +. 0.2) 0;
      rebalance_at (t0 +. 0.4) 1
    end
    else begin
      (* Crash windows: one machine down at a time, each healed before the
         next begins, so every shard and the directory keep a live quorum
         throughout (tolerance testing, not availability testing). *)
      let t = ref 0.6 in
      while !t < t_end -. 1.2 do
        let node = List.nth pool (Rng.int rng (List.length pool)) in
        let dur = 0.3 +. Rng.float rng 0.7 in
        let t0 = !t in
        ignore (Engine.at engine ~time:t0 (fun () -> Rsmr_iface.Overlay.crash (P.control pf) node));
        ignore
          (Engine.at engine ~time:(t0 +. dur) (fun () -> Rsmr_iface.Overlay.recover (P.control pf) node));
        t := t0 +. dur +. 0.2 +. Rng.float rng 0.8
      done;
      (* Directory-overlay partitions, overlapping freely with the crash
         schedule: either one directory replica is cut off, or the whole
         directory is blacked out from its clients (replicas stay mutually
         connected — consistent but unreachable, maximal staleness). *)
      let n_parts = 1 + Rng.int rng 2 in
      for _ = 1 to n_parts do
        let t0 = 0.8 +. Rng.float rng (Float.max 0.5 (t_end -. 2.0)) in
        let dur = 0.5 +. Rng.float rng 1.0 in
        let blackout = Rng.float rng 1.0 < 0.5 in
        ignore
          (Engine.at engine ~time:t0 (fun () ->
               if blackout then P.isolate_dir pf dir_members
               else
                 P.isolate_dir pf
                   [
                     List.nth dir_members
                       (Rng.int rng (List.length dir_members));
                   ]));
        ignore (Engine.at engine ~time:(t0 +. dur) (fun () -> Rsmr_iface.Overlay.heal (P.control pf)))
      done;
      (* Rolling rebalances while the above is in flight. *)
      let n_reb = 1 + Rng.int rng 2 in
      for i = 0 to n_reb - 1 do
        let t0 = 0.9 +. Rng.float rng (Float.max 0.5 (t_end -. 2.4)) in
        rebalance_at t0 ((i + Rng.int rng 2) mod 2)
      done
    end;
    (* Endgame repair, then run to completion. *)
    ignore
      (Engine.at engine ~time:(t_end +. 0.1) (fun () ->
           List.iter (fun n -> Rsmr_iface.Overlay.recover (P.control pf) n) pool;
           Rsmr_iface.Overlay.heal (P.control pf)));
    Engine.run engine ~until:(t_end +. 0.2);
    let settled =
      Engine.run_until engine
        ~pred:(fun () -> pending () = 0)
        ~deadline:(t_end +. 40.0)
    in
    (* Convergence settle, as in the crucible runner: heartbeats carry
       commit indexes to quiet followers until every shard's members
       expose byte-identical state ({!Engine.settle}). *)
    let shard_converged s =
      let members = P.shard_members pf s in
      let snaps =
        List.map
          (fun m ->
            Option.map Kv.snapshot (P.Shard_svc.app_state (P.shard pf s) m))
          members
      in
      match snaps with
      | [] -> false
      | first :: rest -> (
        match first with
        | None -> false
        | Some x ->
          List.for_all
            (function Some y -> String.equal x y | None -> false)
            rest)
    in
    let converged_now () =
      List.for_all shard_converged (List.init (P.n_shards pf) Fun.id)
    in
    let converged =
      Engine.settle engine ~pred:converged_now ~hold:0.5
        ~deadline:(Engine.now engine +. 10.0)
    in
    let failures = ref [] in
    let fail name detail = failures := (name, detail) :: !failures in
    if P.dir_epoch_regressions pf > 0 then
      fail "dir_epoch_monotone"
        (Printf.sprintf "%d lookup replies went backwards"
           (P.dir_epoch_regressions pf));
    let submitted = load.Driver.submitted in
    if load.Driver.duplicates > 0 then
      fail "exactly_once"
        (Printf.sprintf "%d duplicate replies" load.Driver.duplicates);
    if settled = None then
      fail "liveness"
        (Printf.sprintf "%d commands unanswered 40 s after repair" (pending ()));
    let redirects = P.endpoint_counter_total pf "redirects" in
    Option.iter (fail "redirect_bound")
      (Rsmr_client.Endpoint.redirect_storm ~redirects ~submitted);
    if not converged then
      for s = 0 to P.n_shards pf - 1 do
        if not (shard_converged s) then
          (* One compact line per member: host epoch, current-instance
             applied-hi and digest, application snapshot size — enough to
             tell a settle-time straggler (unequal hi) from a committed-
             prefix disagreement (equal hi, unequal digest). *)
          fail "convergence"
            (Printf.sprintf
               "shard %d: members %s do not expose identical state" s
               (String.concat ","
                  (List.map
                     (fun m ->
                       let cur =
                         match
                           List.rev (P.Shard_svc.epoch_stats (P.shard pf s) m)
                         with
                         | (es : Rsmr_core.Service.epoch_stat) :: _ ->
                           Printf.sprintf "hi=%d,d=%Lx" es.es_applied_hi
                             es.es_digest
                         | [] -> "no-instance"
                       in
                       Printf.sprintf "%d(e=%s,%s,app=%s)" m
                         (match P.Shard_svc.host_epoch (P.shard pf s) m with
                          | Some e -> string_of_int e
                          | None -> "-")
                         cur
                         (match P.Shard_svc.app_state (P.shard pf s) m with
                          | Some app ->
                            string_of_int (String.length (Kv.snapshot app))
                          | None -> "-"))
                     (P.shard_members pf s))))
      done;
    (* The epoch audit of each epoch chain: the directory's and every
       shard's. *)
    List.iter
      (fun (name, stats) ->
        Option.iter
          (fun v -> fail "epoch_prefix" (name ^ ": " ^ v))
          (Rsmr_core.Service.epoch_audit (List.map (fun n -> (n, stats n)) pool)))
      (("directory", P.Dir_svc.epoch_stats (P.dir pf))
      :: List.init (P.n_shards pf) (fun s ->
             ("shard " ^ string_of_int s, P.Shard_svc.epoch_stats (P.shard pf s))));
    if !reb_tried > 0 && !reb_done = 0 then
      fail "rebalance_progress"
        (Printf.sprintf "0 of %d attempted rebalances completed" !reb_tried);
    {
      r_proto = proto;
      r_seed = seed;
      r_commands = submitted;
      r_replies = load.Driver.completed;
      r_rebalances = !reb_done;
      r_redirects = redirects;
      r_regressions = P.dir_epoch_regressions pf;
      r_failures = List.rev !failures;
    }
end

module Run_core = Run (Platform.Core)
module Run_vr = Run (Platform.Vr)

let run ?(quick = false) ?(storm = false) (proto : Protocol.t) ~seed =
  match proto.Protocol.kind with
  | Protocol.Composed { block = Protocol.Paxos; strategy } ->
    Run_core.go ~quick ~storm ~strategy proto ~seed
  | Protocol.Composed { block = Protocol.Vr; strategy } ->
    Run_vr.go ~quick ~storm ~strategy proto ~seed
  | Protocol.Raft ->
    invalid_arg "Churn.run: raft has no block to build a platform from"

let storm_seed = 424

let redirect_storm ?quick proto = run ?quick ~storm:true proto ~seed:storm_seed
