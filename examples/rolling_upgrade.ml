(* Rolling upgrade: replace every replica of a live KV service, one at a
   time, under continuous client load — the bread-and-butter operation the
   paper's composition makes cheap.

     dune exec examples/rolling_upgrade.exe

   Prints the per-step client-visible impact (throughput dip, worst
   latency) for each single-replica replacement. *)

module Engine = Rsmr_sim.Engine
module Histogram = Rsmr_sim.Histogram
module Service = Rsmr_core.Service.Make (Rsmr_app.Kv)
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule

let () =
  let engine = Engine.create ~seed:7 () in
  let service =
    Service.create ~engine ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
      ()
  in
  let cluster = Service.cluster service in

  print_endline "Preloading 5k keys...";
  let t0, stats =
    Driver.kv_closed ~cluster ~n_keys:5_000 ~preload_deadline:120.0
      ~read_ratio:0.7 ~n_clients:8 ~duration:16.0 ()
  in

  (* Upgrade plan: replace one replica every 4 seconds.
     {0,1,2} -> {1,2,3} -> {2,3,4} -> {3,4,5} *)
  let steps = [ (2.0, [ 1; 2; 3 ]); (6.0, [ 2; 3; 4 ]); (10.0, [ 3; 4; 5 ]) ] in
  List.iter
    (fun (dt, members) ->
      Schedule.reconfigure_at cluster ~time:(t0 +. dt) members)
    steps;
  Engine.run ~until:(t0 +. 25.0) engine;

  Printf.printf "\n%-28s %-12s %-12s\n" "window" "txn/s" "max latency";
  let window lo hi label =
    let count =
      List.fold_left
        (fun acc (time, _) ->
          if time >= t0 +. lo && time < t0 +. hi then acc + 1 else acc)
        0
        (Rsmr_sim.Timeseries.points stats.Driver.completions)
    in
    let worst =
      match
        Rsmr_sim.Timeseries.max_in_window stats.Driver.completions
          ~lo:(t0 +. lo) ~hi:(t0 +. hi)
      with
      | Some v -> Printf.sprintf "%.1fms" (v *. 1e3)
      | None -> "outage"
    in
    Printf.printf "%-28s %-12.0f %-12s\n" label
      (float_of_int count /. (hi -. lo))
      worst
  in
  window 0.5 2.0 "steady (before)";
  window 2.0 4.0 "step 1: 0 out, 3 in";
  window 4.0 6.0 "settle";
  window 6.0 8.0 "step 2: 1 out, 4 in";
  window 8.0 10.0 "settle";
  window 10.0 12.0 "step 3: 2 out, 5 in";
  window 12.0 16.0 "steady (after)";

  Printf.printf "\nFinal epoch %d, members {%s}; overall latency %s\n"
    (Service.current_epoch service)
    (String.concat "," (List.map string_of_int (Service.current_members service)))
    (Format.asprintf "%a" Histogram.pp_summary stats.Driver.latency);
  (* Each step only touches one replica, so the incoming node installs its
     snapshot from a colocated majority: the dips above should be mild. *)
  assert (Service.current_members service = [ 3; 4; 5 ])
