(* F7 — Directory staleness x redirect pressure: what a directory
   blackout costs the data path.

   Both shards rebalance while the replicated directory is unreachable
   for a varied window, so every client's cached configuration goes
   stale mid-flight and lookups cannot help until the heal.  The
   endpoints must ride wedge redirect hints with bounded traffic (the
   PR-4 retry-storm regression, measured rather than asserted). *)

module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Driver = Rsmr_workload.Driver
module Tenant = Rsmr_workload.Tenant
module Keyspace = Rsmr_shard.Keyspace
module Platform = Rsmr_shard.Platform

let id = "F7"
let title = "Directory staleness vs redirect pressure"

let run_one ~staleness ~tenants ~keys_per_tenant ~duration =
  let engine = Engine.create ~seed:71 () in
  let pool = [ 0; 1; 2; 3; 4; 5 ] in
  let dir_members = [ 0; 2; 4 ] in
  let pf =
    Platform.Core.create ~engine ~latency:Rsmr_net.Latency.lan ~pool
      ~shards:[ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] ~dir_members
      ~keyspace:
        (Keyspace.ranges ~shards:2 ~n_keys:(tenants * keys_per_tenant))
      ()
  in
  let cluster = Platform.Core.cluster pf in
  let rng = Rng.split (Engine.rng engine) in
  let gen = Tenant.create ~rng ~tenants ~keys_per_tenant () in
  let reb_done = ref 0 in
  let rebalance_at t0 ~node ~from_ ~to_ =
    ignore
      (Engine.at engine ~time:t0 (fun () ->
           Platform.Core.rebalance pf ~node ~from_ ~to_
             ~on_done:(fun ok -> if ok then incr reb_done)
             ()))
  in
  let t_fault = 1.5 in
  if staleness > 0.0 then begin
    ignore
      (Engine.at engine ~time:t_fault (fun () ->
           Platform.Core.isolate_dir pf dir_members));
    ignore
      (Engine.at engine ~time:(t_fault +. staleness) (fun () ->
           Rsmr_iface.Overlay.heal (Platform.Core.control pf)))
  end;
  rebalance_at (t_fault +. 0.1) ~node:1 ~from_:0 ~to_:1;
  rebalance_at (t_fault +. 0.2) ~node:4 ~from_:1 ~to_:0;
  let stats =
    Driver.run_closed ~cluster ~n_clients:6
      ~first_client_id:(Platform.Core.first_client_id pf)
      ~gen:(fun ~client:_ ~seq:_ -> Tenant.next gen)
      ~window:2 ~start:0.2 ~duration ()
  in
  Engine.run engine ~until:(0.2 +. duration +. 10.0);
  let n = max 1 stats.Driver.completed in
  ( float_of_int stats.Driver.completed /. duration,
    float_of_int (Platform.Core.endpoint_counter_total pf "redirects")
    /. float_of_int n,
    Platform.Core.endpoint_counter_total pf "lookups",
    !reb_done )

let run ?(quick = false) () =
  let windows = if quick then [ 0.0; 1.0 ] else [ 0.0; 0.5; 1.0; 2.0 ] in
  let tenants = if quick then 20 else 50 in
  let keys_per_tenant = if quick then 50 else 100 in
  let duration = if quick then 3.0 else 6.0 in
  let rows =
    List.map
      (fun staleness ->
        let thr, rdr, lookups, reb =
          run_one ~staleness ~tenants ~keys_per_tenant ~duration
        in
        [
          (if staleness = 0.0 then "none"
           else Printf.sprintf "%.1fs" staleness);
          Table.cell_f thr;
          Table.cell_f rdr;
          string_of_int lookups;
          Printf.sprintf "%d/2" reb;
        ])
      windows
  in
  Table.make ~id ~title
    ~headers:[ "dir blackout"; "txn/s"; "redirects/cmd"; "lookups"; "rebalances" ]
    ~notes:
      [
        Printf.sprintf
          "2 shards x 3 nodes; both shards rebalance 0.1s into the blackout; \
           %d tenants x %d keys; 6 clients, window 2; %gs run" tenants
          keys_per_tenant duration;
        "expected shape: redirects/cmd stays O(1) regardless of the blackout \
         (wedge hints route around the stale directory); lookups grow with \
         the window as endpoints keep probing until the heal";
      ]
    rows

let experiment = { Table.id; title; run }
