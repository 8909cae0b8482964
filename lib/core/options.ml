module Strategy = Rsmr_iface.Reconfig_strategy

type mutation = No_first_wedge | Skip_phase1 | No_session_dedup

let mutations =
  [ ("first-wedge", No_first_wedge); ("skip-phase1", Skip_phase1);
    ("session-dedup", No_session_dedup) ]

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
