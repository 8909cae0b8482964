(* T3 — Leader crash in the middle of a reconfiguration.
   The worst moment to lose a leader: the old configuration has wedged and
   the new one is still assembling state.  Both protocols must recover in
   about one election; the composed protocol additionally relies on
   surviving old members to keep serving the snapshot. *)

module Protocol = Rsmr_protocol.Protocol
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule

let id = "T3"
let title = "Leader crash during reconfiguration: recovery"

let run_one proto ~seed =
  let members = [ 0; 1; 2 ] and universe = Common.default_universe 6 in
  let setup = Common.make ~seed ~bandwidth:2.5e7 proto ~members ~universe in
  let t0, stats =
    Driver.kv_closed ~cluster:setup.Common.cluster ~n_keys:5_000
      ~preload_deadline:120.0 ~read_ratio:0.8 ~n_clients:4 ~duration:40.0 ()
  in
  let t_rc = t0 +. 2.0 in
  Schedule.reconfigure_at setup.Common.cluster ~time:t_rc [ 3; 4; 5 ];
  (* Crash the node that led when the reconfiguration was submitted,
     shortly after — mid-wedge / mid-transfer.  By 50 ms the new
     configuration already leads (its first member needs no election), so
     "whoever leads then" would be the new leader. *)
  let crash_time = t_rc +. 0.02 in
  let victim = ref 0 in
  Schedule.at setup.Common.cluster ~time:t_rc (fun () ->
      victim := Option.value (setup.Common.leader ()) ~default:0);
  Schedule.at setup.Common.cluster ~time:crash_time (fun () ->
      Rsmr_iface.Overlay.crash setup.Common.cluster.Rsmr_iface.Cluster.control
        !victim);
  let completion =
    Common.wait_for_live setup ~target:[ 3; 4; 5 ] ~deadline:(t_rc +. 90.0)
  in
  Common.run_to setup (t_rc +. 35.0);
  let outage = Common.downtime stats ~from_:crash_time ~window:30.0 in
  let comp = match completion with Some t -> t -. t_rc | None -> Float.nan in
  (outage, comp)

let run ?(quick = false) () =
  let seeds = if quick then [ 31 ] else [ 31; 32; 33 ] in
  let rows =
    List.concat_map
      (fun proto ->
        List.map
          (fun seed ->
            let outage, comp = run_one proto ~seed in
            [
              proto.Protocol.name;
              string_of_int seed;
              Table.cell_ms outage;
              (if Float.is_nan comp then "never" else Table.cell_f comp ^ "s");
            ])
          seeds)
      [ Protocol.core; Protocol.raft ]
  in
  Table.make ~id ~title
    ~headers:[ "protocol"; "seed"; "worst latency"; "reconf done" ]
    ~notes:
      [
        "the node leading at submission crashes 20ms after the \
         reconfiguration is submitted; 5k keys";
        "expected shape: both lose the requests in flight to the crashed \
         node and recover in about one client retry timeout (0.5s), more \
         when the crash lands before the old configuration committed the \
         change; reconfig still completes from surviving members";
      ]
    rows

let experiment = { Table.id; title; run }
