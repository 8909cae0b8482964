module Engine = Rsmr_sim.Engine
module Cluster = Rsmr_iface.Cluster
module Overlay = Rsmr_iface.Overlay

let at (cluster : Cluster.t) ~time f =
  ignore (Engine.at cluster.Cluster.engine ~time f)

let reconfigure_at cluster ~time members =
  at cluster ~time (fun () ->
      Overlay.reconfigure cluster.Cluster.control members)

let rolling_plan ~universe ~size ~step =
  let n = List.length universe in
  if size > n then invalid_arg "Schedule.rolling_plan: size exceeds universe";
  let arr = Array.of_list universe in
  List.init size (fun i -> arr.((step + i) mod n))

let periodic_reconfigure cluster ~universe ~size ~start ~period ~count =
  for step = 1 to count do
    reconfigure_at cluster
      ~time:(start +. (float_of_int (step - 1) *. period))
      (rolling_plan ~universe ~size ~step)
  done
