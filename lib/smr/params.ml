type t = {
  heartbeat_interval : float;
  election_timeout_min : float;
  election_timeout_max : float;
  batch_delay : float;
  batch_max : int;
  max_outstanding : int;
  skip_phase1 : bool;
}

let default =
  {
    heartbeat_interval = 0.020;
    election_timeout_min = 0.100;
    election_timeout_max = 0.200;
    batch_delay = 0.0005;
    batch_max = 64;
    max_outstanding = 64;
    skip_phase1 = false;
  }

let resend_interval = 0.050
let unbatched = { default with batch_delay = 0.0 }
let with_batching delay = { default with batch_delay = delay }
