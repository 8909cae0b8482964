(** Load drivers over the protocol-agnostic {!Rsmr_iface.Cluster.t}.

    A driver schedules client work onto the cluster's engine; the caller
    then runs the engine.  Latencies are measured submit-to-reply as a
    client would see them, including retries, redirects and directory
    lookups. *)

type stats = {
  latency : Rsmr_sim.Histogram.t;
  completions : Rsmr_sim.Timeseries.t;
      (** one sample per reply: (reply_time, latency) — feeds both
          throughput-over-time and latency-timeline figures *)
  mutable submitted : int;
  mutable completed : int;
  mutable duplicates : int;
      (** replies to a driven client's request that is no longer in
          flight: a second reply to an answered request *)
}

type event = {
  ev_client : Rsmr_net.Node_id.t;
  ev_seq : int;
  ev_cmd : string;
  ev_invoked : float;
  ev_replied : float;
  ev_rsp : string;
}

val run_closed :
  cluster:Rsmr_iface.Cluster.t ->
  n_clients:int ->
  first_client_id:Rsmr_net.Node_id.t ->
  gen:(client:Rsmr_net.Node_id.t -> seq:int -> string) ->
  ?think:float ->
  ?window:int ->
  ?on_event:(event -> unit) ->
  start:float ->
  duration:float ->
  unit ->
  stats
(** Closed loop: each of [n_clients] keeps [window] requests outstanding
    (default 1), issuing a replacement [think] seconds after each reply
    (default 0).  [window] > 1 is what feeds the client endpoints'
    coalescing buffers — a window of one can never form a batch.  Clients
    stop issuing at [start +. duration].  Installs the cluster's reply
    handler — one driver per cluster at a time. *)

val run_open :
  cluster:Rsmr_iface.Cluster.t ->
  n_clients:int ->
  first_client_id:Rsmr_net.Node_id.t ->
  gen:(client:Rsmr_net.Node_id.t -> seq:int -> string) ->
  rate:float ->
  ?on_event:(event -> unit) ->
  start:float ->
  duration:float ->
  unit ->
  stats
(** Open loop: submissions arrive as a Poisson process of [rate] requests
    per second, round-robin across clients, independent of completions —
    the right model for latency-vs-load curves. *)

val preload :
  cluster:Rsmr_iface.Cluster.t ->
  client:Rsmr_net.Node_id.t ->
  commands:string list ->
  ?window:int ->
  deadline:float ->
  unit ->
  unit
(** Synchronously pump [commands] through the cluster (pipelining up to
    [window], default 32) by running the engine until all are acknowledged.
    Raises [Failure] if the deadline passes first. *)

val kv_closed :
  cluster:Rsmr_iface.Cluster.t ->
  n_keys:int ->
  ?value_size:int ->
  preload_deadline:float ->
  read_ratio:float ->
  n_clients:int ->
  duration:float ->
  unit ->
  float * stats
(** The KV load of every reconfiguration table, [rsmr run] and the
    examples, in one order so that its RNG draws and engine events never
    differ between them: {!preload} [n_keys] Puts of [value_size]-byte
    values (default 100) from client 99, split the engine's RNG, then a
    {!run_closed} of [n_clients] clients from id 100 drawing uniform keys
    ({!Kv_gen}, [read_ratio] Gets), starting 0.5 s after the preload and
    lasting [duration].  Returns the preload's end time and the loop's
    stats; the caller then schedules its faults and runs the engine. *)
