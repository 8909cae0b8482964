(* T2 — Unavailability window vs application state size.
   The speculative handoff claim, quantified: the new instance leads from
   boot and orders while the snapshot streams, so clients wait only for
   execution, and the composed protocol's client-visible outage should
   track the transfer time alone — no election on top. *)

module Protocol = Rsmr_protocol.Protocol
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule

let id = "T2"
let title = "Unavailability window vs state size (fleet replacement)"
let bandwidth = 5e6 (* 40 Mb/s: makes transfer time dominate *)

let run_one proto ~n_keys =
  let members = [ 0; 1; 2 ] and universe = Common.default_universe 6 in
  let setup = Common.make ~seed:23 ~bandwidth proto ~members ~universe in
  let t0, stats =
    Driver.kv_closed ~cluster:setup.Common.cluster ~n_keys
      ~preload_deadline:300.0 ~read_ratio:0.8 ~n_clients:4 ~duration:40.0 ()
  in
  let t_rc = t0 +. 2.0 in
  Schedule.reconfigure_at setup.Common.cluster ~time:t_rc [ 3; 4; 5 ];
  let completion =
    Common.wait_for_live setup ~target:[ 3; 4; 5 ] ~deadline:(t_rc +. 60.0)
  in
  Common.run_to setup (t_rc +. 35.0);
  let dt = Common.downtime stats ~from_:t_rc ~window:30.0 in
  let comp =
    match completion with Some t -> t -. t_rc | None -> Float.nan
  in
  (dt, comp)

let run ?(quick = false) () =
  (* About 112 B of snapshot per key: 0.1 and 1 MB quick; 1, 4 and 16 MB
     in full, 0.2 s, 0.8 s and 3.2 s of transfer at 40 Mb/s. *)
  let sizes = if quick then [ 500; 9_000 ] else [ 9_000; 36_000; 143_000 ] in
  let protos = Protocol.[ core; core_nospec; stopworld; raft ] in
  let rows =
    List.map
      (fun n_keys ->
        let cells =
          List.concat_map
            (fun proto ->
              let dt, comp = run_one proto ~n_keys in
              [ Table.cell_ms dt; Table.cell_f comp ^ "s" ])
            protos
        in
        (Printf.sprintf "%.1fk keys (%.1f MB)"
           (float_of_int n_keys /. 1000.0)
           (float_of_int (n_keys * 112) /. 1e6))
        :: cells)
      sizes
  in
  Table.make ~id ~title
    ~headers:
      ("state"
       :: List.concat_map
            (fun p -> [ p.Protocol.name ^ " outage"; "done" ])
            protos)
    ~notes:
      [
        "outage = worst client latency in the 30s after the reconfig; done = \
         time until the target membership has a leader that executes; \
         40Mb/s uplinks (5 MB/s: 0.2s of transfer per MB); 100B values";
        "expected shape: core outage ~ done ~ transfer time (ordering \
         overlaps, execution waits for the snapshot, no election); nospec \
         ~ core here, because its instance also boots with a leader and \
         the three transfers, from three old members, finish together \
         (what speculation saves is the wait for a majority of new members \
         to hold the state, F5); stopworld as nospec plus a 0.5s client \
         retry when it has residuals; raft's outage grows with the state, \
         each single-server step catching up a snapshot";
      ]
    rows

let experiment = { Table.id; title; run }
