type reply_handler =
  client:Rsmr_net.Node_id.t -> seq:int -> rsp:string -> unit

type t = {
  engine : Rsmr_sim.Engine.t;
  add_client : Rsmr_net.Node_id.t -> unit;
  submit : client:Rsmr_net.Node_id.t -> seq:int -> cmd:string -> unit;
  set_on_reply : reply_handler -> unit;
  members : unit -> Rsmr_net.Node_id.t list;
  control : Overlay.control;
  obs : Rsmr_obs.Registry.t;
}
