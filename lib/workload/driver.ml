module Engine = Rsmr_sim.Engine
module Histogram = Rsmr_sim.Histogram
module Timeseries = Rsmr_sim.Timeseries
module Node_id = Rsmr_net.Node_id
module Cluster = Rsmr_iface.Cluster

type stats = {
  latency : Histogram.t;
  completions : Timeseries.t;
  mutable submitted : int;
  mutable completed : int;
  mutable duplicates : int;
}

type event = {
  ev_client : Node_id.t;
  ev_seq : int;
  ev_cmd : string;
  ev_invoked : float;
  ev_replied : float;
  ev_rsp : string;
}

type inflight = { cmd : string; invoked : float }

let fresh_stats () =
  {
    latency = Histogram.create ();
    completions = Timeseries.create ();
    submitted = 0;
    completed = 0;
    duplicates = 0;
  }

(* Shared reply plumbing: track in-flight requests, record latency, then
   hand off to the per-driver continuation. *)
let setup ~(cluster : Cluster.t) ~n_clients ~first_client_id ?on_event
    ~on_complete () =
  let engine = cluster.Cluster.engine in
  let stats = fresh_stats () in
  let inflight : (Node_id.t * int, inflight) Hashtbl.t = Hashtbl.create 64 in
  let clients = List.init n_clients (fun i -> first_client_id + i) in
  List.iter cluster.Cluster.add_client clients;
  cluster.Cluster.set_on_reply (fun ~client ~seq ~rsp ->
      match Hashtbl.find_opt inflight (client, seq) with
      | None ->
        (* an admin client's reply, or a second one to a driven client *)
        if List.mem client clients then stats.duplicates <- stats.duplicates + 1
      | Some { cmd; invoked } ->
        Hashtbl.remove inflight (client, seq);
        let now = Engine.now engine in
        let lat = now -. invoked in
        Histogram.record stats.latency lat;
        Timeseries.add stats.completions ~time:now lat;
        stats.completed <- stats.completed + 1;
        (match on_event with
         | Some f ->
           f
             {
               ev_client = client;
               ev_seq = seq;
               ev_cmd = cmd;
               ev_invoked = invoked;
               ev_replied = now;
               ev_rsp = rsp;
             }
         | None -> ());
        on_complete ~client);
  let submit ~client ~seq ~cmd =
    Hashtbl.replace inflight (client, seq)
      { cmd; invoked = Engine.now engine };
    stats.submitted <- stats.submitted + 1;
    cluster.Cluster.submit ~client ~seq ~cmd
  in
  (engine, stats, clients, submit)

let run_closed ~cluster ~n_clients ~first_client_id ~gen ?(think = 0.0)
    ?(window = 1) ?on_event ~start ~duration () =
  let seqs : (Node_id.t, int) Hashtbl.t = Hashtbl.create 16 in
  let next_seq client =
    let s = 1 + Option.value (Hashtbl.find_opt seqs client) ~default:0 in
    Hashtbl.replace seqs client s;
    s
  in
  let submit_ref = ref (fun ~client:_ ~seq:_ ~cmd:_ -> ()) in
  let engine_ref = ref None in
  let issue client =
    match !engine_ref with
    | Some engine when Engine.now engine < start +. duration ->
      let seq = next_seq client in
      let cmd = gen ~client ~seq in
      !submit_ref ~client ~seq ~cmd
    | _ -> ()
  in
  let on_complete ~client =
    match !engine_ref with
    | Some engine ->
      if think > 0.0 then
        ignore (Engine.schedule engine ~delay:think (fun () -> issue client))
      else issue client
    | None -> ()
  in
  let engine, stats, clients, submit =
    setup ~cluster ~n_clients ~first_client_id ?on_event ~on_complete ()
  in
  submit_ref := submit;
  engine_ref := Some engine;
  List.iter
    (fun client ->
      ignore
        (Engine.at engine ~time:start (fun () ->
             (* [window] requests in flight per client; completions keep the
                pipe full one-for-one from then on. *)
             for _ = 1 to max 1 window do
               issue client
             done)))
    clients;
  stats

let run_open ~cluster ~n_clients ~first_client_id ~gen ~rate ?on_event ~start
    ~duration () =
  if rate <= 0.0 then invalid_arg "Driver.run_open: rate must be positive";
  let engine, stats, clients, submit =
    setup ~cluster ~n_clients ~first_client_id ?on_event
      ~on_complete:(fun ~client:_ -> ())
      ()
  in
  let rng = Rsmr_sim.Rng.split (Engine.rng engine) in
  let clients = Array.of_list clients in
  let seqs : (Node_id.t, int) Hashtbl.t = Hashtbl.create 16 in
  let rr = ref 0 in
  let rec arrival () =
    if Engine.now engine < start +. duration then begin
      let client = clients.(!rr mod Array.length clients) in
      incr rr;
      let seq = 1 + Option.value (Hashtbl.find_opt seqs client) ~default:0 in
      Hashtbl.replace seqs client seq;
      submit ~client ~seq ~cmd:(gen ~client ~seq);
      let gap = Rsmr_sim.Rng.exponential rng ~mean:(1.0 /. rate) in
      ignore (Engine.schedule engine ~delay:gap arrival)
    end
  in
  ignore (Engine.at engine ~time:start arrival);
  stats

let preload ~cluster ~client ~commands ?(window = 32) ~deadline () =
  let engine = cluster.Cluster.engine in
  cluster.Cluster.add_client client;
  let total = List.length commands in
  let remaining = ref commands in
  let next_seq = ref 0 in
  let acked = ref 0 in
  let submit_next () =
    match !remaining with
    | [] -> ()
    | cmd :: rest ->
      remaining := rest;
      incr next_seq;
      cluster.Cluster.submit ~client ~seq:!next_seq ~cmd
  in
  cluster.Cluster.set_on_reply (fun ~client:c ~seq:_ ~rsp:_ ->
      if Node_id.equal c client then begin
        incr acked;
        submit_next ()
      end);
  for _ = 1 to min window total do
    submit_next ()
  done;
  let rec pump horizon =
    Engine.run ~until:horizon engine;
    if !acked >= total then ()
    else if horizon >= deadline then
      failwith
        (Printf.sprintf "Driver.preload: %d/%d acked by deadline" !acked total)
    else pump (horizon +. 0.5)
  in
  if total > 0 then pump (Engine.now engine +. 0.5);
  (* Leave the reply slot free for the next driver. *)
  cluster.Cluster.set_on_reply (fun ~client:_ ~seq:_ ~rsp:_ -> ())

let kv_closed ~cluster ~n_keys ?(value_size = 100) ~preload_deadline
    ~read_ratio ~n_clients ~duration () =
  preload ~cluster ~client:99
    ~commands:(Kv_gen.preload_commands ~n_keys ~value_size)
    ~deadline:preload_deadline ();
  let engine = cluster.Cluster.engine in
  let t0 = Engine.now engine in
  let rng = Rsmr_sim.Rng.split (Engine.rng engine) in
  let gen = Kv_gen.create ~rng ~keys:(Keys.uniform ~n:n_keys) ~read_ratio () in
  let stats =
    run_closed ~cluster ~n_clients ~first_client_id:100
      ~gen:(fun ~client:_ ~seq:_ -> Kv_gen.next gen)
      ~start:(t0 +. 0.5) ~duration ()
  in
  (t0, stats)
