(* F3 — Throughput under continuous reconfiguration churn.
   Rolling membership rotations at increasing rates; the protocol that
   overlaps ordering with transfer should degrade most gently. *)

module Protocol = Rsmr_protocol.Protocol
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule

let id = "F3"
let title = "Throughput vs reconfiguration churn rate"

let run_one proto ~period ~duration =
  let universe = Common.default_universe 8 in
  let members = [ 0; 1; 2 ] in
  let setup = Common.make ~seed:13 proto ~members ~universe in
  let t0, stats =
    Driver.kv_closed ~cluster:setup.Common.cluster ~n_keys:2_000
      ~preload_deadline:60.0 ~read_ratio:0.8 ~n_clients:6 ~duration ()
  in
  (match period with
   | Some p ->
     let count = int_of_float (duration /. p) in
     Schedule.periodic_reconfigure setup.Common.cluster ~universe ~size:3
       ~start:(t0 +. 1.0) ~period:p ~count
   | None -> ());
  Common.run_to setup (t0 +. duration +. 30.0);
  float_of_int stats.Driver.completed /. duration

let run ?(quick = false) () =
  let duration = if quick then 6.0 else 20.0 in
  let periods =
    if quick then [ None; Some 3.0 ]
    else [ None; Some 10.0; Some 5.0; Some 2.0; Some 1.0 ]
  in
  let protos = Protocol.[ core; matchmaker; stopworld; raft ] in
  let baseline = Hashtbl.create 4 in
  let rows =
    List.map
      (fun period ->
        let rate =
          match period with
          | None -> "0"
          | Some p -> Table.cell_f (60.0 /. p)
        in
        let cells =
          List.concat_map
            (fun proto ->
              let thr = run_one proto ~period ~duration in
              (match period with
               | None -> Hashtbl.replace baseline proto thr
               | Some _ -> ());
              let rel =
                match Hashtbl.find_opt baseline proto with
                | Some b when b > 0.0 -> Table.cell_f (100.0 *. thr /. b) ^ "%"
                | _ -> "-"
              in
              [ Table.cell_f thr; rel ])
            protos
        in
        rate :: cells)
      periods
  in
  Table.make ~id ~title
    ~headers:
      ("reconfigs/min"
       :: List.concat_map
            (fun p -> [ p.Protocol.name ^ " txn/s"; "rel" ])
            protos)
    ~notes:
      [
        "rolling replacement of one membership slot per reconfiguration";
        "expected shape: core and matchmaker degrade gently; stopworld \
         collapses at high churn";
      ]
    rows

let experiment = { Table.id; title; run }
