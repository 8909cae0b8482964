(* F6 — Aggregate throughput vs shard count: the elasticity headline.

   Same machine pool, same multi-tenant workload, same batched client
   defaults (PR-8); only the number of composed shards varies.  Each
   shard is an independent epoch chain, so ordering work parallelises
   across shards while the replicated directory stays a single (cold
   path) service. *)

module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Counters = Rsmr_sim.Counters
module Registry_obs = Rsmr_obs.Registry
module Driver = Rsmr_workload.Driver
module Tenant = Rsmr_workload.Tenant
module Keyspace = Rsmr_shard.Keyspace
module Platform = Rsmr_shard.Platform

let id = "F6"
let title = "Aggregate throughput vs shard count (shared pool)"

(* Disjoint 3-node member sets over one pool: shard i starts on machines
   3i .. 3i+2. *)
let member_sets ~shards = List.init shards (fun i -> [ 3 * i; (3 * i) + 1; (3 * i) + 2 ])

(* Per-node NIC model (bytes/s): tight enough that a single leader's
   egress — command fan-out to its followers — is the bottleneck, which
   is exactly the resource sharding multiplies. *)
let nic = 2e6

let run_one ~shards ~tenants ~keys_per_tenant ~duration =
  let engine = Engine.create ~seed:61 () in
  let pool = List.init (3 * max 2 shards) (fun i -> i) in
  let pf =
    Platform.Core.create ~engine ~latency:Rsmr_net.Latency.lan ~bandwidth:nic
      ~pool
      ~shards:(member_sets ~shards)
      ~keyspace:
        (Keyspace.ranges ~shards ~n_keys:(tenants * keys_per_tenant))
      ()
  in
  let cluster = Platform.Core.cluster pf in
  let rng = Rng.split (Engine.rng engine) in
  (* Mild cross-tenant skew: enough heterogeneity to exercise routing,
     not enough to pin the aggregate to whichever shard owns the hottest
     tenants (F7 and the crucible's dir_churn family stress the
     skewed/imbalanced regimes). *)
  let gen =
    Tenant.create ~rng ~tenants ~keys_per_tenant ~tenant_theta:0.3
      ~value_size:256 ()
  in
  let net = Registry_obs.counters (Platform.Core.obs pf) "net" in
  (* Warmup: elect every shard's leader and settle the endpoints, so the
     measured window sees steady state, not startup redirect churn. *)
  let warm =
    Driver.run_closed ~cluster ~n_clients:4
      ~first_client_id:(Platform.Core.first_client_id pf)
      ~gen:(fun ~client:_ ~seq:_ -> Tenant.next gen)
      ~window:2 ~start:0.1 ~duration:1.0 ()
  in
  Engine.run engine ~until:1.5;
  ignore warm;
  let sent0 = Counters.get net "sent" in
  let bytes0 = Counters.get net "bytes_sent" in
  let t0 = Engine.now engine in
  let stats =
    Driver.run_closed ~cluster ~n_clients:16
      ~first_client_id:(Platform.Core.first_client_id pf + 8)
      ~gen:(fun ~client:_ ~seq:_ -> Tenant.next gen)
      ~window:8 ~start:(t0 +. 0.1) ~duration ()
  in
  Engine.run engine ~until:(t0 +. 0.1 +. duration +. 2.0);
  let sent = Counters.get net "sent" - sent0 in
  let bytes = Counters.get net "bytes_sent" - bytes0 in
  let n = max 1 stats.Driver.completed in
  ( float_of_int stats.Driver.completed /. duration,
    float_of_int sent /. float_of_int n,
    float_of_int bytes /. float_of_int n )

let run ?(quick = false) () =
  let counts = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let tenants = if quick then 20 else 50 in
  let keys_per_tenant = if quick then 50 else 100 in
  let duration = if quick then 3.0 else 8.0 in
  let results =
    List.map
      (fun shards ->
        (shards, run_one ~shards ~tenants ~keys_per_tenant ~duration))
      counts
  in
  let base =
    match results with (_, (thr, _, _)) :: _ -> thr | [] -> 1.0
  in
  let rows =
    List.map
      (fun (shards, (thr, mpc, bpc)) ->
        [
          string_of_int shards;
          Table.cell_f thr;
          Printf.sprintf "%.2fx" (thr /. base);
          Table.cell_f mpc;
          Table.cell_f bpc;
        ])
      results
  in
  Table.make ~id ~title
    ~headers:[ "shards"; "txn/s"; "speedup"; "msgs/cmd"; "bytes/cmd" ]
    ~notes:
      [
        Printf.sprintf
          "%d tenants x %d keys, Zipf(0.3) over tenants, Zipf(0.99) within; \
           16 clients, window 8, batched client defaults, %gMB/s NICs; %gs \
           measured window"
          tenants keys_per_tenant (nic /. 1e6) duration;
        "expected shape: near-linear txn/s growth 1->4 shards (independent \
         epoch chains); msgs/cmd roughly flat — the directory adds no \
         per-command traffic on the data path";
      ]
    rows

let experiment = { Table.id; title; run }
