(* T1 — Message and byte cost, per committed command and per
   reconfiguration.  The composition's command cost should equal the static
   block's (the layer adds nothing on the fast path); its reconfiguration
   cost is bootstrap + phase-1 of the new instance + snapshot chunks. *)

module Protocol = Rsmr_protocol.Protocol
module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Keys = Rsmr_workload.Keys
module Driver = Rsmr_workload.Driver

let id = "T1"
let title = "Messages / bytes per command and per reconfiguration"

let snapshot cluster =
  let net =
    Rsmr_obs.Registry.counters cluster.Rsmr_iface.Cluster.obs "net"
  in
  (Counters.get net "sent", Counters.get net "bytes_sent")

let run_one proto ~n_cmds =
  let members = [ 0; 1; 2; 3; 4 ] and universe = Common.default_universe 8 in
  let setup = Common.make ~seed:17 proto ~members ~universe in
  let cluster = setup.Common.cluster in
  (* Let elections and heartbeats settle, then take an idle baseline so the
     steady heartbeat cost can be subtracted. *)
  Common.run_to setup 2.0;
  let idle0_m, idle0_b = snapshot cluster in
  Common.run_to setup 4.0;
  let idle1_m, idle1_b = snapshot cluster in
  let idle_m_per_s = float_of_int (idle1_m - idle0_m) /. 2.0 in
  let idle_b_per_s = float_of_int (idle1_b - idle0_b) /. 2.0 in
  (* Command phase. *)
  let t_load0 = Engine.now setup.Common.engine in
  let load0_m, load0_b = snapshot cluster in
  Driver.preload ~cluster ~client:99
    ~commands:
      (List.init n_cmds (fun i ->
           Rsmr_app.Kv.encode_command
             (Rsmr_app.Kv.Put (Keys.key_name (i mod 512), "v"))))
    ~window:8 ~deadline:(t_load0 +. 200.0) ();
  let load1_m, load1_b = snapshot cluster in
  let dt = Engine.now setup.Common.engine -. t_load0 in
  let per_cmd_m =
    (float_of_int (load1_m - load0_m) -. (idle_m_per_s *. dt))
    /. float_of_int n_cmds
  in
  let per_cmd_b =
    (float_of_int (load1_b - load0_b) -. (idle_b_per_s *. dt))
    /. float_of_int n_cmds
  in
  (* Reconfiguration phase: one membership rotation under no load. *)
  let rc0_m, rc0_b = snapshot cluster in
  let t_rc0 = Engine.now setup.Common.engine in
  Rsmr_iface.Overlay.reconfigure cluster.Rsmr_iface.Cluster.control
    [ 3; 4; 5; 6; 7 ];
  (match
     Common.wait_for_live setup ~target:[ 3; 4; 5; 6; 7 ]
       ~deadline:(t_rc0 +. 60.0)
   with
   | Some _ -> ()
   | None -> ());
  (* Quiesce so retirement / final acks are included. *)
  let t_done = Engine.now setup.Common.engine in
  Common.run_to setup (t_done +. 1.0);
  let rc1_m, rc1_b = snapshot cluster in
  let dt_rc = Engine.now setup.Common.engine -. t_rc0 in
  let rc_m = float_of_int (rc1_m - rc0_m) -. (idle_m_per_s *. dt_rc) in
  let rc_b = float_of_int (rc1_b - rc0_b) -. (idle_b_per_s *. dt_rc) in
  (per_cmd_m, per_cmd_b, rc_m, rc_b, dt_rc -. 1.0)

let run ?(quick = false) () =
  let n_cmds = if quick then 200 else 1000 in
  let rows =
    List.map
      (fun proto ->
        let cmd_m, cmd_b, rc_m, rc_b, rc_t = run_one proto ~n_cmds in
        [
          proto.Protocol.name;
          Table.cell_f cmd_m;
          Table.cell_f cmd_b;
          Table.cell_f rc_m;
          Table.cell_f (rc_b /. 1024.0);
          Table.cell_f rc_t;
        ])
      [ Protocol.core; Protocol.stopworld; Protocol.raft ]
  in
  Table.make ~id ~title
    ~headers:
      [ "protocol"; "msgs/cmd"; "bytes/cmd"; "msgs/reconf"; "KiB/reconf"; "reconf s" ]
    ~notes:
      [
        "5 replicas; 512-key state; full 5-node replacement; idle heartbeat \
         traffic subtracted";
        "expected shape: identical command cost for core/stopworld (same \
         static block); reconf cost dominated by snapshot chunks; raft pays \
         per-step config entries + snapshot catch-up";
      ]
    rows

let experiment = { Table.id; title; run }
