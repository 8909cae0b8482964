(* The four benchmark workloads, each run once per process on either the
   production stacks or their traced twins.

   Every workload has the same shape: set-up (build the stack, elect,
   warm up or preload), then one measured phase that runs the engine
   through the load and its drain, then checks on the final state.  All
   randomness is split from the engine seed, as in lib/experiments. *)

module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Counters = Rsmr_sim.Counters
module Histogram = Rsmr_sim.Histogram
module Timeseries = Rsmr_sim.Timeseries
module Registry = Rsmr_obs.Registry
module Latency = Rsmr_net.Latency
module Cluster = Rsmr_iface.Cluster
module Kv = Rsmr_app.Kv
module Dir_app = Rsmr_app.Dir_app
module Driver = Rsmr_workload.Driver
module Keys = Rsmr_workload.Keys
module Kv_gen = Rsmr_workload.Kv_gen
module Tenant = Rsmr_workload.Tenant
module Schedule = Rsmr_workload.Schedule
module Service = Rsmr_core.Service
module Platform = Rsmr_shard.Platform
module Keyspace = Rsmr_shard.Keyspace

let names = [ "steady"; "overload"; "reconfig"; "sharded" ]

(* [Virtual] values are simulated-time readings and counts: identical
   across reps and between traced and untraced runs.  [Alloc] values are
   deterministic within one stack but differ between the production and
   traced stacks.  [Host] values are host-time readings. *)
type kind = Virtual | Alloc | Host

type metric = { name : string; kind : kind; value : float }
type check = { check : string; ok : bool; detail : string }

type result = {
  metrics : metric list;
  checks : check list;
  submitted : int;
  completed : int;
}

(* [Smoke] runs every workload at about 1/20 of its size. *)
type scale = Full | Smoke

(* Read when the module initialises, i.e. as the process starts. *)
let process_start_ns = Layer_trace.now_ns ()

(* --------------------------------------------------------- measured phase *)

(* Host speed on a shared machine drifts by up to 2x over minutes, so
   every host reading is scaled to a reference speed: a fixed loop is timed
   right before and right after the measured phase, and a reading of x ns
   means x ns on a machine that runs the loop in [reference_s].  The loop allocates
   nothing and its table lives outside the OCaml heap, so it leaves the
   allocation and heap metrics alone, and nothing in lib/ can change its
   speed. *)
let reference_s = 0.050

(* Built on first use, which comes after [setup_s] is read. *)
let calibration_table =
  lazy
    (Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 17) (fun i ->
         i * 2654435761 land 0x1ffff))

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds of 6M dependent reads and writes at random places in a 1 MB
   table.  The table fits a core's own 2 MB cache, as the 2 MB minor heap
   does, and this loop followed the simulation's slowdowns more closely
   than the same walk over an 8 MB table, which lives in the shared cache,
   or than arithmetic alone (see README.md). *)
let calibrate () =
  let t = Lazy.force calibration_table in
  let cpu0 = cpu_now () in
  let x = ref 1 in
  for _ = 1 to 6_000_000 do
    let i = !x land 0x1ffff in
    x :=
      (Bigarray.Array1.unsafe_get t i + (!x * 1103515245) + 12345)
      land 0x3fffffff;
    Bigarray.Array1.unsafe_set t i (!x land 0x1ffff)
  done;
  ignore (Sys.opaque_identity !x);
  cpu_now () -. cpu0

type phase = {
  setup_s : float;
  calibration_s : float;
  wall_ns : int;
  cpu_s : float;
  alloc_words : float;
  promoted_words : float;
  major_collections : int;
  heap_peak_mb : float;
  events : int;
  net : (string * int) list;  (* counter deltas over the phase *)
  svc : (string * int) list;
}

let delta before after =
  List.map
    (fun (k, v) -> (k, v - Option.value (List.assoc_opt k before) ~default:0))
    after

let get l k = Option.value (List.assoc_opt k l) ~default:0

let sum_prefix l prefix =
  List.fold_left
    (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
    0 l

(* Counter sections summed over every run's registry. *)
let section runs name =
  List.fold_left
    (fun acc (_, obs) ->
      List.fold_left
        (fun acc (k, v) -> (k, v + get acc k) :: List.remove_assoc k acc)
        acc
        (Counters.to_list (Registry.counters obs name)))
    [] runs

let events runs =
  List.fold_left (fun acc (e, _) -> acc + Engine.events_executed e) 0 runs

(* Run [load] as the measured phase over [runs], the (engine, registry)
   pairs it drives; everything before it is set-up. *)
let measure ~traced ~runs load =
  let setup_s =
    float_of_int (Layer_trace.now_ns () - process_start_ns) *. 1e-9
  in
  let calibration_before = calibrate () in
  let net0 = section runs "net" and svc0 = section runs "svc" in
  let ev0 = events runs in
  let maj0 = (Gc.quick_stat ()).Gc.major_collections in
  if traced then Layer_trace.reset ();
  let minor0, promoted0, major0 = Gc.counters () in
  let cpu0 = cpu_now () in
  let w0 = Layer_trace.now_ns () in
  load ();
  let w1 = Layer_trace.now_ns () in
  let cpu1 = cpu_now () in
  let minor1, promoted1, major1 = Gc.counters () in
  let st = Gc.quick_stat () in
  {
    setup_s;
    calibration_s = (calibration_before +. calibrate ()) /. 2.0;
    wall_ns = w1 - w0;
    cpu_s = cpu1 -. cpu0;
    alloc_words =
      minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
    promoted_words = promoted1 -. promoted0;
    major_collections = st.Gc.major_collections - maj0;
    heap_peak_mb =
      float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    events = events runs - ev0;
    net = delta net0 (section runs "net");
    svc = delta svc0 (section runs "svc");
  }

(* ------------------------------------------------------ client statistics *)

(* Exact nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_latencies stats_list =
  let a =
    Array.concat
      (List.map
         (fun (s : Driver.stats) ->
           Array.of_list (List.map snd (Timeseries.points s.Driver.completions)))
         stats_list)
  in
  Array.sort Float.compare a;
  a

let completions_in (s : Driver.stats) ~lo ~hi =
  List.fold_left
    (fun acc (time, _) -> if time >= lo && time < hi then acc + 1 else acc)
    0
    (Timeseries.points s.Driver.completions)

(* The one-second windows of a load phase: [from_], [from_ + 1], ... up
   to [until], and at least one. *)
let seconds ~from_ ~until =
  List.init (max 1 (int_of_float (until -. from_))) (fun i ->
      from_ +. float_of_int i)

(* Median over every window [w, w + 1 s) of the worst latency completing
   in it, where [groups] pairs one run's clients with that run's windows; a
   second in which nothing completes counts as a full second.  A median,
   not a mean: on sharded a move now and then strands a burst of requests
   until the client's 0.5 s retry, depending on the seed, and one such
   second would otherwise move the result by a quarter. *)
let outage_ms groups =
  let worst stats_list lo =
    List.fold_left
      (fun acc (s : Driver.stats) ->
        match
          Timeseries.max_in_window s.Driver.completions ~lo ~hi:(lo +. 1.0)
        with
        | Some v -> Float.max acc v
        | None -> acc)
      0.0 stats_list
  in
  let ws =
    Array.of_list
      (List.concat_map
         (fun (stats_list, windows) ->
           List.map
             (fun lo -> match worst stats_list lo with 0.0 -> 1.0 | v -> v)
             windows)
         groups)
  in
  Array.sort Float.compare ws;
  let n = Array.length ws in
  1e3 *. (ws.((n - 1) / 2) +. ws.(n / 2)) /. 2.0

(* Every reply must be the response its command calls for, and a value
   read back must have the size the generator writes. *)
let response_checker ~value_size =
  let bad = ref 0 in
  let on_event (ev : Driver.event) =
    let ok =
      match
        ( Kv.decode_command ev.Driver.ev_cmd,
          Kv.decode_response ev.Driver.ev_rsp )
      with
      | Kv.Get _, Kv.Value None -> true
      | Kv.Get _, Kv.Value (Some v) -> String.length v = value_size
      | Kv.Put _, Kv.Ok -> true
      | _ -> false
      | exception Rsmr_app.Codec.Truncated -> false
    in
    if not ok then incr bad
  in
  (on_event, bad)

(* ------------------------------------------------------------------ checks *)

let check name ok detail = { check = name; ok; detail }

(* After the drain: every member of the final configuration holds the same
   application state, no instance applied past its wedge point, and
   replicas that applied the same prefix of an epoch agree on its digest. *)
let service_checks (type s a)
    (module S : Service.S with type t = s and type app_state = a)
    ~(snapshot : a -> string) ~label (svc : s) ~universe =
  let members = S.current_members svc in
  let snaps =
    List.map (fun m -> Option.map snapshot (S.app_state svc m)) members
  in
  let agree =
    match snaps with
    | Some first :: rest ->
      List.for_all (Option.equal String.equal (Some first)) rest
    | _ -> false
  in
  let stats = List.concat_map (fun n -> S.epoch_stats svc n) universe in
  let prefix_ok =
    List.for_all
      (fun (es : Service.epoch_stat) ->
        match es.Service.es_wedged_at with
        | Some w -> es.Service.es_applied_hi <= w
        | None -> true)
      stats
  in
  let digests_ok =
    List.for_all
      (fun (a : Service.epoch_stat) ->
        List.for_all
          (fun (b : Service.epoch_stat) ->
            a.Service.es_epoch <> b.Service.es_epoch
            || a.Service.es_applied_hi <> b.Service.es_applied_hi
            || Int64.equal a.Service.es_digest b.Service.es_digest)
          stats)
      stats
  in
  [
    check ("replicas_agree." ^ label) agree
      (Printf.sprintf "%d members of epoch %d" (List.length members)
         (S.current_epoch svc));
    check ("epoch_prefix." ^ label) prefix_ok
      (Printf.sprintf "%d instances" (List.length stats));
    check ("digest_agree." ^ label) digests_ok "";
  ]

(* ----------------------------------------------------------------- metrics *)

type summary = {
  phase : phase;
  load : Driver.stats list;  (* every measured client *)
  rate_stats : Driver.stats list;  (* the clients throughput and latency read *)
  rate_window : float * float;
  runs : int;  (* independent runs whose rate clients share [rate_window] *)
  tail_pct : float;
  outage : (Driver.stats list * float list) list;  (* see [outage_ms] *)
  epoch_changes : int;
  wedged_window_ms : float;
  shard : (string * float) list;
  extra : metric list;  (* reported, but neither e2e nor per-layer *)
}

let no_shard =
  [
    ("shard.redirects_per_cmd", 0.0);
    ("shard.retries_per_cmd", 0.0);
    ("shard.dir_lookups", 0.0);
  ]

let wedged_window_ms obs =
  let h =
    Registry.histogram obs
      ~labels:[ ("strategy", Rsmr_iface.Reconfig_strategy.composed.name) ]
      "wedged_window_s"
  in
  if Histogram.count h = 0 then 0.0 else 1e3 *. Histogram.mean h

let metrics_of ~traced s =
  let p = s.phase in
  let completed =
    List.fold_left (fun a (x : Driver.stats) -> a + x.Driver.completed) 0 s.load
  in
  let submitted =
    List.fold_left (fun a (x : Driver.stats) -> a + x.Driver.submitted) 0 s.load
  in
  let cmds = float_of_int (max 1 completed) in
  let per_cmd v = float_of_int v /. cmds in
  let per_reconfig v =
    if s.epoch_changes = 0 then 0.0
    else float_of_int v /. float_of_int s.epoch_changes
  in
  let lo, hi = s.rate_window in
  let in_window =
    List.fold_left (fun a x -> a + completions_in x ~lo ~hi) 0 s.rate_stats
  in
  let lat = sorted_latencies s.rate_stats in
  let tail = percentile lat s.tail_pct in
  let beyond =
    Array.fold_left (fun a v -> if v > tail then a + 1 else a) 0 lat
  in
  let net k = get p.net k and svc k = get p.svc k in
  let ctrl_bytes =
    net "bytes_sent" - net "bytes.client" - sum_prefix p.net "bytes.block."
  in
  let v name value = { name; kind = Virtual; value } in
  let a name value = { name; kind = Alloc; value } in
  let scale = reference_s /. p.calibration_s in
  let h name value = { name; kind = Host; value = value *. scale } in
  let e2e =
    [
      h "setup_s" p.setup_s;
      h "host_ns_per_cmd" (p.cpu_s *. 1e9 /. cmds);
      a "alloc_words_per_cmd" (p.alloc_words /. cmds);
      a "heap_peak_mb" p.heap_peak_mb;
      v "throughput_cps"
        (float_of_int in_window /. ((hi -. lo) *. float_of_int s.runs));
      v "latency_p50_ms" (1e3 *. percentile lat 50.0);
      v "latency_tail_ms" (1e3 *. tail);
      v "answered_frac" (float_of_int completed /. float_of_int (max 1 submitted));
      v "msgs_per_cmd" (per_cmd (net "sent"));
      v "bytes_per_cmd" (per_cmd (net "bytes_sent"));
      v "outage_ms" (outage_ms s.outage);
      { name = "calibration_ms"; kind = Host; value = 1e3 *. p.calibration_s };
      v "latency_tail_pct" s.tail_pct;
      v "latency_tail_samples" (float_of_int beyond);
    ]
  in
  let layers =
    [
      v "core.wedged_window_ms" s.wedged_window_ms;
      v "core.transfer_bytes_per_reconfig" (per_reconfig (svc "transfer_bytes"));
      v "core.residuals_per_reconfig" (per_reconfig (svc "residuals"));
      v "core.requests_per_reply" (per_cmd (svc "requests"));
      v "core.redirects_per_cmd" (per_cmd (svc "redirects"));
      v "smr.accept_msgs_per_cmd"
        (per_cmd (net "sent.block.accept" + net "sent.block.accept_multi"));
      v "net.client_msgs_per_cmd" (per_cmd (net "sent.client"));
      v "net.block_msgs_per_cmd" (per_cmd (sum_prefix p.net "sent.block."));
      v "net.ctrl_bytes_per_reconfig" (per_reconfig ctrl_bytes);
      v "sim.events_per_cmd" (per_cmd p.events);
      a "gc.promoted_words_per_cmd" (p.promoted_words /. cmds);
      a "gc.major_collections" (float_of_int p.major_collections);
    ]
    @ List.map (fun (name, value) -> v name value) s.shard
  in
  let traced_layers =
    if not traced then []
    else
      let module T = Layer_trace in
      let timed =
        [
          T.core_decide; T.core_egress; T.smr_block; T.smr_codec; T.app_apply;
          T.app_codec;
        ]
      in
      List.concat_map
        (fun b ->
          [
            h (T.names.(b) ^ ".self_ns_per_cmd") (per_cmd T.self_ns.(b));
            v (T.names.(b) ^ ".calls_per_cmd") (per_cmd T.calls.(b));
          ])
        timed
      @ [
          h "app.snapshot.self_ns_per_reconfig"
            (per_reconfig T.self_ns.(T.app_snapshot));
          v "app.snapshot.bytes_per_reconfig" (per_reconfig !T.snapshot_bytes);
          h "client.submit.self_ns_per_cmd" (per_cmd T.self_ns.(T.client_submit));
          h "workload.driver.self_ns_per_cmd"
            (per_cmd T.self_ns.(T.workload_driver));
          h "untimed.self_ns_per_cmd"
            (((p.cpu_s *. 1e9) -. float_of_int (T.self_total ())) /. cmds);
        ]
  in
  (e2e @ layers @ traced_layers @ s.extra, submitted, completed)

(* ---------------------------------------------------------------- stacks *)

module type KV_SERVICE = Service.S with type app_state = Kv.t

module Traced_service =
  Service.Make_on
    (Layer_trace.Timed_block (Rsmr_smr.Paxos_block))
    (Layer_trace.Timed_app (Kv))

module Traced_platform =
  Platform.Make_on (Layer_trace.Timed_block (Rsmr_smr.Paxos_block))

let service ~traced : (module KV_SERVICE) =
  if traced then (module Traced_service) else (module Service.Make (Kv))

let platform ~traced : (module Platform.S) =
  if traced then (module Traced_platform) else (module Platform.Core)

let client_view ~traced c = if traced then Layer_trace.timed_cluster c else c

let finish ~traced ~bad summary checks =
  let metrics, submitted, completed = metrics_of ~traced summary in
  let self = Layer_trace.self_total () and wall = summary.phase.wall_ns in
  let trace_checks =
    if not traced then []
    else
      [
        check "trace_self_nonneg"
          (Array.for_all (fun v -> v >= 0) Layer_trace.self_ns)
          "";
        check "trace_within_phase" (self <= wall)
          (Printf.sprintf "self %d ns of %d ns" self wall);
      ]
  in
  {
    metrics;
    checks =
      check "completed_le_submitted" (completed <= submitted)
        (Printf.sprintf "%d of %d" completed submitted)
      :: check "responses" (!bad = 0) (Printf.sprintf "%d malformed" !bad)
      :: (trace_checks @ checks);
    submitted;
    completed;
  }

(* ------------------------------------------------------------- workloads *)

(* steady — the fast path.  Closed loop, 8 clients x 16-deep windows, 50%
   reads over 1k uniform keys, 64 B values, no faults: the block, the
   decide path, the codecs and endpoint coalescing do nearly all the work,
   while transfer, shard and retry code stays idle. *)
let steady ~traced ~scale ~seed =
  let (module S) = service ~traced in
  let duration = match scale with Full -> 1.5 | Smoke -> 0.08 in
  let engine = Engine.create ~seed () in
  let members = [ 0; 1; 2 ] in
  let svc = S.create ~engine ~latency:Latency.lan ~members () in
  let cluster = client_view ~traced (S.cluster svc) in
  let rng = Rng.split (Engine.rng engine) in
  let gen =
    Kv_gen.create ~rng ~keys:(Keys.uniform ~n:1000) ~read_ratio:0.5
      ~value_size:64 ()
  in
  let next ~client:_ ~seq:_ = Kv_gen.next gen in
  (* Elect, then let a warm-up set of clients find the leader. *)
  ignore
    (Driver.run_closed ~cluster ~n_clients:8 ~first_client_id:100 ~window:16
       ~gen:next ~start:0.5 ~duration:0.2 ());
  Engine.run engine ~until:1.0;
  let start = 1.0 in
  let on_event, bad = response_checker ~value_size:64 in
  let stats =
    Driver.run_closed ~cluster ~n_clients:8 ~first_client_id:200 ~window:16
      ~gen:next ~on_event ~start ~duration ()
  in
  let phase =
    measure ~traced ~runs:[ (engine, S.obs svc) ] (fun () ->
        Engine.run engine ~until:(start +. duration +. 1.0))
  in
  finish ~traced ~bad
    {
      phase;
      load = [ stats ];
      rate_stats = [ stats ];
      rate_window = (start, start +. duration);
      runs = 1;
      tail_pct = 99.99;
      outage = [ ([ stats ], seconds ~from_:start ~until:(start +. duration)) ];
      epoch_changes = S.current_epoch svc;
      wedged_window_ms = wedged_window_ms (S.obs svc);
      shard = no_shard;
      extra = [];
    }
    (service_checks (module S) ~snapshot:Kv.snapshot ~label:"kv" svc
       ~universe:members)

(* overload — the latency-vs-load knee.  Open-loop Poisson arrivals from
   16 clients over 4 Mb/s uplinks at fixed steps, each with fresh clients
   and a drain.  Past the knee the network queue, block backlog and client
   retries dominate, and the app path is a sliver.  How much the retries
   amplify varies a lot from one arrival sequence to the next, so a rep
   pools several independent episodes, each on its own cluster and engine
   seeded from the run's seed. *)
let overload_rates = [ 1000.0; 2000.0; 3000.0; 6000.0 ]

let overload ~traced ~scale ~seed =
  let (module S) = service ~traced in
  let episodes, step, drain =
    match scale with Full -> (8, 0.5, 4.0) | Smoke -> (1, 0.1, 1.0)
  in
  let starts =
    List.mapi
      (fun k rate -> (rate, 1.0 +. (float_of_int k *. (step +. drain))))
      overload_rates
  in
  let finish_at = 1.0 +. (float_of_int (List.length starts) *. (step +. drain)) in
  let seeds = Rng.create seed in
  let on_event, bad = response_checker ~value_size:64 in
  let episode () =
    let engine = Engine.create ~seed:(Rng.int seeds 0x3fffffff) () in
    let members = [ 0; 1; 2 ] in
    let svc =
      S.create ~engine ~latency:Latency.lan ~bandwidth:5e5 ~members ()
    in
    let cluster = client_view ~traced (S.cluster svc) in
    let rng = Rng.split (Engine.rng engine) in
    let gen =
      Kv_gen.create ~rng ~keys:(Keys.uniform ~n:1000) ~read_ratio:0.5
        ~value_size:64 ()
    in
    let next ~client:_ ~seq:_ = Kv_gen.next gen in
    ignore
      (Driver.run_open ~cluster ~n_clients:16 ~first_client_id:100 ~gen:next
         ~rate:500.0 ~start:0.5 ~duration:0.2 ());
    Engine.run engine ~until:1.0;
    (* A driver owns the reply handler, so each step's driver is created
       when that step begins, after the previous step has drained. *)
    let steps = Array.make (List.length starts) None in
    List.iteri
      (fun k (rate, start) ->
        Schedule.at cluster ~time:start (fun () ->
            steps.(k) <-
              Some
                (Driver.run_open ~cluster ~n_clients:16
                   ~first_client_id:(200 + (16 * k))
                   ~gen:next ~rate ~on_event ~start ~duration:step ())))
      starts;
    (engine, svc, steps)
  in
  let eps = List.init episodes (fun _ -> episode ()) in
  let phase =
    measure ~traced
      ~runs:(List.map (fun (e, svc, _) -> (e, S.obs svc)) eps)
      (fun () ->
        List.iter (fun (e, _, _) -> Engine.run e ~until:finish_at) eps)
  in
  let stats_of steps = Array.to_list (Array.map Option.get steps) in
  (* Per-step results, pooled over the episodes.  A step's p99 leaves out
     requests sent in its first fifth: each step brings fresh clients, and
     their first requests take a redirect at about 20 ms, which would set
     the p99 of a 0.5 s step at every rate. *)
  let step_rows =
    List.mapi
      (fun k (rate, start) ->
        let stats = List.map (fun (_, _, steps) -> Option.get steps.(k)) eps in
        let settled =
          Array.of_list
            (List.concat_map
               (fun (s : Driver.stats) ->
                 List.filter_map
                   (fun (t, lat) ->
                     if t -. lat >= start +. (step /. 5.0) then Some lat
                     else None)
                   (Timeseries.points s.Driver.completions))
               stats)
        in
        Array.sort Float.compare settled;
        let p99 = percentile settled 99.0 in
        let in_step =
          List.fold_left
            (fun a s -> a + completions_in s ~lo:start ~hi:(start +. step))
            0 stats
        in
        let all =
          List.for_all
            (fun (s : Driver.stats) -> s.Driver.completed = s.Driver.submitted)
            stats
        in
        (rate, p99, float_of_int in_step /. (step *. float_of_int episodes), all))
      starts
  in
  (* The highest step whose p99 meets a 10 ms limit with nothing left
     unanswered. *)
  let slo =
    List.fold_left
      (fun acc (rate, p99, _, all) ->
        if p99 <= 0.010 && all then Float.max acc rate else acc)
      0.0 step_rows
  in
  let extra =
    { name = "slo_rate_rps"; kind = Virtual; value = slo }
    :: List.concat_map
         (fun (rate, p99, goodput, _) ->
           let at = Printf.sprintf "step%d." (int_of_float rate) in
           [
             { name = at ^ "goodput_cps"; kind = Virtual; value = goodput };
             { name = at ^ "p99_ms"; kind = Virtual; value = 1e3 *. p99 };
           ])
         step_rows
  in
  let top = List.length starts - 1 in
  let top_start = snd (List.nth starts top) in
  let step_windows =
    List.concat_map
      (fun (_, start) -> seconds ~from_:start ~until:(start +. step))
      starts
  in
  finish ~traced ~bad
    {
      phase;
      load = List.concat_map (fun (_, _, steps) -> stats_of steps) eps;
      rate_stats = List.map (fun (_, _, steps) -> Option.get steps.(top)) eps;
      rate_window = (top_start, top_start +. step);
      runs = episodes;
      tail_pct = 99.0;
      outage = List.map (fun (_, _, steps) -> (stats_of steps, step_windows)) eps;
      epoch_changes = 0;
      wedged_window_ms = 0.0;
      shard = no_shard;
      extra;
    }
    (List.concat_map
       (fun (_, svc, _) ->
         service_checks (module S) ~snapshot:Kv.snapshot ~label:"kv" svc
           ~universe:[ 0; 1; 2 ])
       eps)

(* reconfig — the paper's own mechanism.  A 6-node universe, a preloaded
   ~2 MB state, closed-loop 80%-read load, and a rolling single-member
   reconfiguration every second: wedge, chunked snapshot transfer,
   residuals and speculative handoff, on the same Service layer as
   [steady] but off its decide path. *)
let reconfig ~traced ~scale ~seed =
  let (module S) = service ~traced in
  let n_keys, changes = match scale with Full -> (10_000, 19) | Smoke -> (1_000, 1) in
  let engine = Engine.create ~seed () in
  let universe = [ 0; 1; 2; 3; 4; 5 ] in
  let svc =
    S.create ~engine ~latency:Latency.lan ~bandwidth:2.5e7 ~universe
      ~members:[ 0; 1; 2 ] ()
  in
  let cluster = client_view ~traced (S.cluster svc) in
  Driver.preload ~cluster ~client:99
    ~commands:(Kv_gen.preload_commands ~n_keys ~value_size:100)
    ~deadline:120.0 ();
  let start = Engine.now engine +. 0.5 in
  let duration = float_of_int (changes + 1) in
  let rng = Rng.split (Engine.rng engine) in
  let gen =
    Kv_gen.create ~rng ~keys:(Keys.uniform ~n:n_keys) ~read_ratio:0.8
      ~value_size:100 ()
  in
  let on_event, bad = response_checker ~value_size:100 in
  let stats =
    Driver.run_closed ~cluster ~n_clients:3 ~first_client_id:100 ~window:4
      ~gen:(fun ~client:_ ~seq:_ -> Kv_gen.next gen)
      ~on_event ~start ~duration ()
  in
  let change_times = List.init changes (fun k -> start +. float_of_int (k + 1)) in
  List.iteri
    (fun k time ->
      Schedule.at cluster ~time (fun () ->
          cluster.Cluster.control.Rsmr_iface.Overlay.reconfigure
            (Schedule.rolling_plan ~universe ~size:3 ~step:(k + 1))))
    change_times;
  let epoch0 = S.current_epoch svc in
  let phase =
    measure ~traced ~runs:[ (engine, S.obs svc) ] (fun () ->
        Engine.run engine ~until:(start +. duration +. 3.0))
  in
  let epochs = S.current_epoch svc - epoch0 in
  finish ~traced ~bad
    {
      phase;
      load = [ stats ];
      rate_stats = [ stats ];
      rate_window = (start, start +. duration);
      runs = 1;
      tail_pct = 99.9;
      outage = [ ([ stats ], seconds ~from_:start ~until:(start +. duration)) ];
      epoch_changes = epochs;
      wedged_window_ms = wedged_window_ms (S.obs svc);
      shard = no_shard;
      extra = [];
    }
    (check "reconfigs_done" (epochs = changes)
       (Printf.sprintf "%d of %d" epochs changes)
    :: service_checks (module S) ~snapshot:Kv.snapshot ~label:"kv" svc
         ~universe)

(* sharded — the elastic platform.  Two 3-node shards over one pool, the
   replicated directory, 2 MB/s NICs and a multi-tenant Zipf(0.3) mix of
   256 B values.  Twice under load, a follower of shard 0 moves to shard 1
   and back 2 s later.  The only workload that runs lib/shard: keyspace
   routing, the directory client, the directory instance and endpoint
   redirects.  Tenants hold 20 keys each so that a move's state transfer
   stays well inside the client's 0.5 s retry timeout; with 100 keys the
   stall sits near it, and whether requests retry becomes a coin toss that
   swamps every latency statistic. *)
let sharded ~traced ~scale ~seed =
  let (module P) = platform ~traced in
  let duration, moves =
    match scale with
    | Full -> (18.0, [ (1.0, 3.0); (9.0, 11.0) ])
    | Smoke -> (1.0, [ (0.2, 0.5) ])
  in
  let tenants = 50 and keys_per_tenant = 20 in
  let engine = Engine.create ~seed () in
  let pool = [ 0; 1; 2; 3; 4; 5 ] in
  let pf =
    P.create ~engine ~latency:Latency.lan ~bandwidth:2e6 ~pool
      ~shards:[ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]
      ~keyspace:(Keyspace.ranges ~shards:2 ~n_keys:(tenants * keys_per_tenant))
      ()
  in
  let cluster = client_view ~traced (P.cluster pf) in
  let rng = Rng.split (Engine.rng engine) in
  let gen =
    Tenant.create ~rng ~tenants ~keys_per_tenant ~tenant_theta:0.3
      ~value_size:256 ()
  in
  let next ~client:_ ~seq:_ = Tenant.next gen in
  ignore
    (Driver.run_closed ~cluster ~n_clients:4
       ~first_client_id:(P.first_client_id pf)
       ~gen:next ~window:2 ~start:0.1 ~duration:1.0 ());
  Engine.run engine ~until:1.5;
  let start = 1.6 in
  let on_event, bad = response_checker ~value_size:256 in
  let stats =
    Driver.run_closed ~cluster ~n_clients:16
      ~first_client_id:(P.first_client_id pf + 8)
      ~gen:next ~window:8 ~on_event ~start ~duration ()
  in
  let moves_done = ref 0 in
  let rebalance ~node ~from_ ~to_ =
    P.rebalance pf ~node ~from_ ~to_
      ~on_done:(fun ok -> if ok then incr moves_done)
      ()
  in
  (* Moving a follower keeps the donor's leader: which node leads is up to
     the seed, and a moved leader adds an election to some moves only. *)
  List.iter
    (fun (out_at, back_at) ->
      let node = ref (-1) in
      Schedule.at cluster ~time:(start +. out_at) (fun () ->
          let leader = P.Shard_svc.current_leader (P.shard pf 0) in
          node :=
            List.fold_left
              (fun acc m -> if Some m = leader then acc else max acc m)
              (-1) (P.shard_members pf 0);
          rebalance ~node:!node ~from_:0 ~to_:1);
      Schedule.at cluster ~time:(start +. back_at) (fun () ->
          rebalance ~node:!node ~from_:1 ~to_:0))
    moves;
  let epochs () =
    List.fold_left
      (fun acc i -> acc + P.Shard_svc.current_epoch (P.shard pf i))
      (P.Dir_svc.current_epoch (P.dir pf))
      (List.init (P.n_shards pf) Fun.id)
  in
  let epoch0 = epochs () in
  let ep k = P.endpoint_counter_total pf k in
  let redirects0 = ep "redirects" and retries0 = ep "retries" in
  let lookups0 = Counters.get (P.counters pf) "dir_lookups" in
  let phase =
    measure ~traced ~runs:[ (engine, P.obs pf) ] (fun () ->
        Engine.run engine ~until:(start +. duration +. 2.0))
  in
  let per_cmd v =
    float_of_int v /. float_of_int (max 1 stats.Driver.completed)
  in
  let shard =
    [
      ("shard.redirects_per_cmd", per_cmd (ep "redirects" - redirects0));
      ("shard.retries_per_cmd", per_cmd (ep "retries" - retries0));
      ( "shard.dir_lookups",
        float_of_int (Counters.get (P.counters pf) "dir_lookups" - lookups0) );
    ]
  in
  let shard_checks =
    List.concat_map
      (fun i ->
        service_checks
          (module P.Shard_svc)
          ~snapshot:Kv.snapshot
          ~label:(Printf.sprintf "shard%d" i)
          (P.shard pf i) ~universe:pool)
      (List.init (P.n_shards pf) Fun.id)
  in
  finish ~traced ~bad
    {
      phase;
      load = [ stats ];
      rate_stats = [ stats ];
      rate_window = (start, start +. duration);
      runs = 1;
      (* Above p99 the tail is set by the few moves that happen to make a
         client retry, which varies from seed to seed; the moves
         themselves show in [outage]. *)
      tail_pct = 99.0;
      outage = [ ([ stats ], seconds ~from_:start ~until:(start +. duration)) ];
      epoch_changes = epochs () - epoch0;
      wedged_window_ms = wedged_window_ms (P.obs pf);
      shard;
      extra = [];
    }
    ((check "rebalances_done"
        (!moves_done = 2 * List.length moves)
        (Printf.sprintf "%d of %d" !moves_done (2 * List.length moves))
     :: check "dir_epoch_regressions"
          (P.dir_epoch_regressions pf = 0)
          (string_of_int (P.dir_epoch_regressions pf))
     :: shard_checks)
    @ service_checks
        (module P.Dir_svc)
        ~snapshot:Dir_app.snapshot ~label:"dir" (P.dir pf) ~universe:pool)

let run name =
  match name with
  | "steady" -> steady
  | "overload" -> overload
  | "reconfig" -> reconfig
  | "sharded" -> sharded
  | _ -> invalid_arg ("unknown workload " ^ name)
