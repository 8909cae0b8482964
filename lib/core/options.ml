module Strategy = Rsmr_iface.Reconfig_strategy

type mutation = No_first_wedge

type t = {
  strategy : Strategy.t;
  client_batch_window : float;
  client_batch_max : int;
  mutation : mutation option;
}

let default =
  {
    strategy = Strategy.composed;
    client_batch_window = 0.0005;
    client_batch_max = 16;
    mutation = None;
  }
