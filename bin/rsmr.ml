(* rsmr — command-line front end.

     rsmr experiments [--quick] [ID...]   regenerate evaluation tables
     rsmr run [options]                   ad-hoc scenario, prints stats
     rsmr check [options]                 linearizability check of a run
     rsmr list                            list experiment ids *)

open Cmdliner

module Engine = Rsmr_sim.Engine
module Histogram = Rsmr_sim.Histogram
module Common = Rsmr_experiments.Common
module Registry = Rsmr_experiments.Registry
module Table = Rsmr_experiments.Table
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule
module Keys = Rsmr_workload.Keys
module Kv_gen = Rsmr_workload.Kv_gen
module Protocol = Rsmr_protocol.Protocol

let proto_conv =
  let parse s =
    let s = String.lowercase_ascii s in
    match Protocol.find s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf p.Protocol.name)

let members_conv =
  let parse s =
    try Ok (String.split_on_char ',' s |> List.map int_of_string)
    with Failure _ -> Error (`Msg "expected comma-separated node ids")
  in
  Arg.conv
    ( parse,
      fun ppf ms ->
        Format.pp_print_string ppf (String.concat "," (List.map string_of_int ms)) )

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
        (fun (e : Registry.entry) -> Table.print (e.Registry.run ~quick ()))
        entries;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the evaluation tables/figures")
    Term.(ret (const run $ quick $ ids))

let list_cmd =
  let run () =
    List.iter
      (fun (e : Registry.entry) ->
        Printf.printf "%-4s %s\n" e.Registry.id e.Registry.title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids") Term.(const run $ const ())

(* --- ad-hoc run --- *)

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let proto_t =
  let doc =
    "Protocol: "
    ^ String.concat ", " (List.map (fun p -> p.Protocol.name) Protocol.all)
    ^ "."
  in
  Arg.(value & opt proto_conv Protocol.core & info [ "proto" ] ~doc)

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
  Driver.preload ~cluster:setup.Common.cluster ~client:99
    ~commands:(Kv_gen.preload_commands ~n_keys:keys ~value_size:100)
    ~deadline:600.0 ();
  let t0 = Engine.now setup.Common.engine in
  let rng = Rsmr_sim.Rng.split (Engine.rng setup.Common.engine) in
  let gen = Kv_gen.create ~rng ~keys:(Keys.uniform ~n:keys) ~read_ratio () in
  let stats =
    Driver.run_closed ~cluster:setup.Common.cluster ~n_clients:clients
      ~first_client_id:100
      ~gen:(fun ~client:_ ~seq:_ -> Kv_gen.next gen)
      ~start:(t0 +. 0.5) ~duration ()
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

(* --- linearizability check --- *)

module Reg_protocol = Protocol.Make (Rsmr_app.Register)
module Lin = Rsmr_checker.Linearizability.Make (Rsmr_app.Register)
module History = Rsmr_checker.History

let check_scenario seed proto clients duration drop =
  let engine = Engine.create ~seed () in
  let members = [ 0; 1; 2 ] and universe = List.init 6 Fun.id in
  Printf.printf "protocol=%s strategy=%s\n%!" proto.Protocol.name
    (Protocol.strategy_name proto);
  let { Reg_protocol.cluster; _ } =
    Reg_protocol.create ~engine ~drop proto ~members ~universe
  in
  let rng = Rsmr_sim.Rng.split (Engine.rng engine) in
  let gen ~client:_ ~seq:_ =
    match Rsmr_sim.Rng.int rng 3 with
    | 0 -> Rsmr_app.Register.encode_command Rsmr_app.Register.Read
    | 1 ->
      Rsmr_app.Register.encode_command
        (Rsmr_app.Register.Write (Rsmr_sim.Rng.int rng 100))
    | _ ->
      let e = Rsmr_sim.Rng.int rng 100 in
      Rsmr_app.Register.encode_command
        (Rsmr_app.Register.Cas (e, Rsmr_sim.Rng.int rng 100))
  in
  let h = History.create () in
  let on_event (e : Driver.event) =
    History.add h
      {
        History.client = e.Driver.ev_client;
        cmd = e.Driver.ev_cmd;
        rsp = e.Driver.ev_rsp;
        invoked = e.Driver.ev_invoked;
        replied = e.Driver.ev_replied;
      }
  in
  ignore
    (Driver.run_closed ~cluster ~n_clients:clients ~first_client_id:100 ~gen
       ~on_event ~start:0.5 ~duration ());
  Schedule.reconfigure_at cluster ~time:(duration /. 2.0) [ 3; 4; 5 ];
  Engine.run ~until:(duration +. 30.0) engine;
  Printf.printf "history: %d operations, peak concurrency %d\n"
    (History.length h) (History.concurrency h);
  match Lin.check h with
  | Lin.Linearizable ->
    print_endline "result: LINEARIZABLE";
    exit 0
  | Lin.Not_linearizable ->
    print_endline "result: NOT LINEARIZABLE — protocol bug!";
    exit 1
  | Lin.Inconclusive ->
    print_endline "result: inconclusive (checker budget)";
    exit 2

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Drive a register workload across a reconfiguration and verify the \
          recorded history is linearizable")
    Term.(
      const check_scenario $ seed_t $ proto_t
      $ Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Concurrent clients.")
      $ Arg.(value & opt float 6.0 & info [ "duration" ] ~doc:"Load duration.")
      $ drop_t)

let () =
  let doc = "Reconfigurable SMR from non-reconfigurable building blocks" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "rsmr" ~doc)
          [ experiments_cmd; list_cmd; run_cmd; check_cmd ]))
