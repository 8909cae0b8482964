module Strategy = Rsmr_iface.Reconfig_strategy

type mutation = No_first_wedge

type t = {
  strategy : Strategy.t;
  chunk_size : int;
  fetch_timeout : float;
  prepare_ttl : float;
  client_batch_window : float;
  client_batch_max : int;
  mutation : mutation option;
}

let default =
  {
    strategy = Strategy.composed;
    chunk_size = 64 * 1024;
    fetch_timeout = 0.25;
    prepare_ttl = 1.0;
    client_batch_window = 0.0005;
    client_batch_max = 16;
    mutation = None;
  }
