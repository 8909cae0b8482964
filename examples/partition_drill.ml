(* Partition drill: a network partition isolates the leader's minority; the
   majority side elects a new leader inside the SAME static configuration
   (no reconfiguration needed — that is the building block's job).  After
   healing, operations reconfigure away from the flaky node entirely.

     dune exec examples/partition_drill.exe *)

module Engine = Rsmr_sim.Engine
module Network = Rsmr_net.Network
module Service = Rsmr_core.Service.Make (Rsmr_app.Kv)
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule

let () =
  let engine = Engine.create ~seed:5 () in
  let service =
    Service.create ~engine ~members:[ 0; 1; 2; 3; 4 ]
      ~universe:[ 0; 1; 2; 3; 4; 5 ] ()
  in
  let cluster = Service.cluster service in
  let net = Service.net service in

  let t0, stats =
    Driver.kv_closed ~cluster ~n_keys:1_000 ~value_size:64
      ~preload_deadline:60.0 ~read_ratio:0.5 ~n_clients:4 ~duration:12.0 ()
  in

  (* At t=+2: cut the current leader plus one follower off from the rest.
     The majority (3 of 5) keeps the service alive. *)
  Schedule.at cluster ~time:(t0 +. 2.0) (fun () ->
      match Service.current_leader service with
      | Some leader ->
        let other = if leader = 0 then 1 else 0 in
        let minority = [ leader; other ] in
        let majority =
          List.filter (fun n -> not (List.mem n minority)) [ 0; 1; 2; 3; 4; 5 ]
        in
        Printf.printf "t=+2.0 partition: minority {%s} cut off\n"
          (String.concat "," (List.map string_of_int minority));
        Network.partition net [ minority; majority ]
      | None -> print_endline "t=+2.0 no leader to isolate!?");
  (* t=+5: heal. *)
  Schedule.at cluster ~time:(t0 +. 5.0) (fun () ->
      print_endline "t=+5.0 partition healed";
      Network.heal net);
  (* t=+6: ops replace node 0 (deemed flaky) with the spare node 5. *)
  Schedule.reconfigure_at cluster ~time:(t0 +. 6.0) [ 1; 2; 3; 4; 5 ];
  Engine.run ~until:(t0 +. 16.0) engine;

  Printf.printf "\nthroughput per second of the drill:\n";
  List.iter
    (fun (start, rate) ->
      Printf.printf "  t=+%4.1fs  %5.0f txn/s%s\n" (start -. t0) rate
        (if start -. t0 >= 2.0 && start -. t0 < 3.0 then "   <- partition hits"
         else if start -. t0 >= 5.0 && start -. t0 < 6.0 then "   <- healed"
         else if start -. t0 >= 6.0 && start -. t0 < 7.0 then "   <- reconfigure away from flaky node"
         else "")
    )
    (Rsmr_sim.Timeseries.rate_per_bucket stats.Driver.completions ~width:1.0);
  Printf.printf "\nfinal members {%s}, total completed %d\n"
    (String.concat "," (List.map string_of_int (Service.current_members service)))
    stats.Driver.completed;
  assert (Service.current_members service = [ 1; 2; 3; 4; 5 ])
