(* Unit tests for the sharded platform: key-range routing, the
   replicated-directory client, platform submit/reply plumbing, and the
   rolling cross-shard rebalance. *)

module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Keys = Rsmr_workload.Keys
module Kv = Rsmr_app.Kv
module Dir_app = Rsmr_app.Dir_app
module Keyspace = Rsmr_shard.Keyspace
module Dir_client = Rsmr_shard.Dir_client
module Platform = Rsmr_shard.Platform
module DirService = Rsmr_core.Service.Make (Rsmr_app.Dir_app)
module Snapshot = Rsmr_core.Snapshot

(* --- keyspace --- *)

let test_keyspace_routing () =
  let ks = Keyspace.ranges ~shards:4 ~n_keys:1000 in
  Alcotest.(check int) "shard count" 4 (Keyspace.shards ks);
  (* Binary search agrees with the definition: shard i owns the i-th
     contiguous quarter of the canonical index space. *)
  for i = 0 to 999 do
    let expect = min 3 (i * 4 / 1000) in
    Alcotest.(check int)
      (Printf.sprintf "key %d" i)
      expect
      (Keyspace.shard_of ks (Keys.key_name i))
  done;
  (* Keys outside the canonical space still land somewhere sane. *)
  Alcotest.(check int) "below all boundaries" 0 (Keyspace.shard_of ks "");
  Alcotest.(check int) "above all boundaries" 3
    (Keyspace.shard_of ks "zzz")

let test_keyspace_validation () =
  (match Keyspace.of_boundaries [ "m"; "c" ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "unsorted boundaries accepted");
  let ks = Keyspace.of_boundaries [] in
  Alcotest.(check int) "no boundaries = one shard" 1 (Keyspace.shards ks);
  Alcotest.(check int) "everything routes to it" 0
    (Keyspace.shard_of ks "anything")

(* --- directory client over a real replicated directory --- *)

let make_dir () =
  let engine = Engine.create ~seed:7 () in
  let svc =
    DirService.create ~engine ~members:[ 0; 1; 2 ]
      ~universe:[ 0; 1; 2; 3; 4; 5 ] ()
  in
  let dirc = Dir_client.attach ~cluster:(DirService.cluster svc) ~client:50 () in
  (engine, svc, dirc)

let test_dir_client_publish_lookup () =
  let engine, _svc, dirc = make_dir () in
  Dir_client.publish dirc ~name:"shard-0" ~epoch:3 ~members:[ 1; 2; 3 ]
    ~leader:(Some 2);
  (* Let the publish commit before looking up — publish and lookup are
     independent client commands and would otherwise race. *)
  Engine.run ~until:15.0 engine;
  let got = ref None in
  Dir_client.lookup dirc ~name:"shard-0" (fun e -> got := Some e);
  Engine.run ~until:30.0 engine;
  (match !got with
   | Some (Some e) ->
     Alcotest.(check int) "epoch" 3 e.Dir_app.epoch;
     Alcotest.(check (list int)) "members" [ 1; 2; 3 ] e.Dir_app.members;
     Alcotest.(check (option int)) "leader" (Some 2) e.Dir_app.leader
   | Some None -> Alcotest.fail "directory had no entry"
   | None -> Alcotest.fail "lookup never completed");
  Alcotest.(check int) "reply epoch cached" 3
    (Dir_client.last_epoch dirc ~name:"shard-0");
  Alcotest.(check int) "no regressions" 0 (Dir_client.regressions dirc)

let test_dir_client_stale_publish_dropped () =
  let engine, _svc, dirc = make_dir () in
  Dir_client.publish dirc ~name:"s" ~epoch:5 ~members:[ 1 ] ~leader:None;
  (* Older epoch, and a same-epoch republish with no new leader: both
     dropped locally without touching the wire. *)
  Dir_client.publish dirc ~name:"s" ~epoch:4 ~members:[ 9 ] ~leader:None;
  Dir_client.publish dirc ~name:"s" ~epoch:5 ~members:[ 1 ] ~leader:None;
  Alcotest.(check int) "one publish on the wire" 1
    (Counters.get (Dir_client.counters dirc) "publishes");
  (* A same-epoch publish with a fresh leader hint does go out. *)
  Dir_client.publish dirc ~name:"s" ~epoch:5 ~members:[ 1 ] ~leader:(Some 1);
  Alcotest.(check int) "leader refresh published" 2
    (Counters.get (Dir_client.counters dirc) "publishes");
  Engine.run ~until:30.0 engine;
  let got = ref None in
  Dir_client.lookup dirc ~name:"s" (fun e -> got := Some e);
  Engine.run ~until:60.0 engine;
  match !got with
  | Some (Some e) ->
    Alcotest.(check int) "directory kept the newest" 5 e.Dir_app.epoch;
    Alcotest.(check (option int)) "with the refreshed leader" (Some 1)
      e.Dir_app.leader
  | _ -> Alcotest.fail "lookup failed"

(* --- platform --- *)

let make_platform () =
  let engine = Engine.create ~seed:11 () in
  let pf =
    Platform.Core.create ~engine ~pool:[ 0; 1; 2; 3; 4; 5 ]
      ~shards:[ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]
      ~keyspace:(Keyspace.ranges ~shards:2 ~n_keys:100)
      ()
  in
  (engine, pf)

let test_platform_routes_and_replies () =
  let engine, pf = make_platform () in
  let cluster = Platform.Core.cluster pf in
  let client = Platform.Core.first_client_id pf in
  let replies = Hashtbl.create 8 in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client:_ ~seq ~rsp ->
      Hashtbl.replace replies seq rsp);
  cluster.Rsmr_iface.Cluster.add_client client;
  (* key 10 lives on shard 0, key 90 on shard 1. *)
  cluster.Rsmr_iface.Cluster.submit ~client ~seq:1
    ~cmd:(Kv.encode_command (Kv.Put (Keys.key_name 10, "a")));
  cluster.Rsmr_iface.Cluster.submit ~client ~seq:2
    ~cmd:(Kv.encode_command (Kv.Put (Keys.key_name 90, "b")));
  Engine.run ~until:30.0 engine;
  Alcotest.(check bool) "both replied" true
    (Hashtbl.mem replies 1 && Hashtbl.mem replies 2);
  let has_key s key =
    List.exists
      (fun m ->
        match Platform.Core.Shard_svc.app_state (Platform.Core.shard pf s) m with
        | Some st -> Kv.find st key <> None
        | None -> false)
      (Platform.Core.shard_members pf s)
  in
  Alcotest.(check bool) "key 10 on shard 0 only" true
    (has_key 0 (Keys.key_name 10) && not (has_key 1 (Keys.key_name 10)));
  Alcotest.(check bool) "key 90 on shard 1 only" true
    (has_key 1 (Keys.key_name 90) && not (has_key 0 (Keys.key_name 90)))

let test_platform_client_id_guard () =
  let _, pf = make_platform () in
  let cluster = Platform.Core.cluster pf in
  match cluster.Rsmr_iface.Cluster.add_client 3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "client id colliding with the pool accepted"

let test_rebalance_moves_node () =
  let engine, pf = make_platform () in
  let cluster = Platform.Core.cluster pf in
  let client = Platform.Core.first_client_id pf in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client:_ ~seq:_ ~rsp:_ -> ());
  cluster.Rsmr_iface.Cluster.add_client client;
  let outcome = ref None in
  ignore
    (Engine.at engine ~time:0.5 (fun () ->
         Platform.Core.rebalance pf ~node:2 ~from_:0 ~to_:1
           ~on_done:(fun ok -> outcome := Some ok)
           ()));
  Engine.run ~until:60.0 engine;
  Alcotest.(check (option bool)) "rebalance completed" (Some true) !outcome;
  Alcotest.(check (list int)) "donor shrank" [ 0; 1 ]
    (List.sort compare (Platform.Core.shard_members pf 0));
  Alcotest.(check (list int)) "recipient grew" [ 2; 3; 4; 5 ]
    (List.sort compare (Platform.Core.shard_members pf 1));
  Alcotest.(check int) "counted done" 1
    (Counters.get (Platform.Core.counters pf) "rebalances_done");
  (* Ineligible move: node not in the donor. *)
  let bad = ref None in
  Platform.Core.rebalance pf ~node:9 ~from_:0 ~to_:1
    ~on_done:(fun ok -> bad := Some ok)
    ();
  Alcotest.(check (option bool)) "ineligible refused" (Some false) !bad

let test_rebalance_updates_directory () =
  let engine, pf = make_platform () in
  let cluster = Platform.Core.cluster pf in
  let client = Platform.Core.first_client_id pf in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client:_ ~seq:_ ~rsp:_ -> ());
  cluster.Rsmr_iface.Cluster.add_client client;
  ignore
    (Engine.at engine ~time:0.5 (fun () ->
         Platform.Core.rebalance pf ~node:2 ~from_:0 ~to_:1 ()));
  Engine.run ~until:60.0 engine;
  let dirc = Platform.Core.dir_client pf in
  let entries = Hashtbl.create 4 in
  Dir_client.lookup dirc ~name:"shard-0" (fun e ->
      Hashtbl.replace entries 0 e);
  Dir_client.lookup dirc ~name:"shard-1" (fun e ->
      Hashtbl.replace entries 1 e);
  Engine.run ~until:120.0 engine;
  (match Hashtbl.find_opt entries 0 with
   | Some (Some e) ->
     Alcotest.(check (list int)) "directory has donor's new members" [ 0; 1 ]
       (List.sort compare e.Dir_app.members)
   | _ -> Alcotest.fail "no directory entry for shard-0");
  match Hashtbl.find_opt entries 1 with
  | Some (Some e) ->
    Alcotest.(check (list int)) "directory has recipient's new members"
      [ 2; 3; 4; 5 ]
      (List.sort compare e.Dir_app.members)
  | _ -> Alcotest.fail "no directory entry for shard-1"

(* --- one snapshot per move ---

   The elastic-platform shape: two shards of 100 keys per tenant over
   2 MB/s NICs, a follower of shard 0 moving to shard 1 and back, twice,
   under closed-loop load.  A move shrinks the donor (no member is new)
   and grows the recipient (one member is new), so it ships exactly one
   snapshot, about 0.35 s of one uplink.  Every request is answered and
   no client waits out its retry timer. *)
let test_one_snapshot_per_move () =
  let engine = Engine.create ~seed:8 () in
  let tenants = 50 and keys_per_tenant = 100 and value_size = 256 in
  let n_keys = tenants * keys_per_tenant in
  let pf =
    Platform.Core.create ~engine ~latency:Rsmr_net.Latency.lan ~bandwidth:2e6
      ~pool:[ 0; 1; 2; 3; 4; 5 ]
      ~shards:[ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]
      ~keyspace:(Keyspace.ranges ~shards:2 ~n_keys)
      ()
  in
  let cluster = Platform.Core.cluster pf in
  let client = Platform.Core.first_client_id pf in
  Rsmr_workload.Driver.preload ~cluster ~client
    ~commands:(Rsmr_workload.Kv_gen.preload_commands ~n_keys ~value_size)
    ~deadline:60.0 ();
  let gen =
    Rsmr_workload.Tenant.create ~rng:(Rsmr_sim.Rng.split (Engine.rng engine))
      ~tenants ~keys_per_tenant ~tenant_theta:0.3 ~value_size ()
  in
  let start = Engine.now engine +. 0.1 in
  let stats =
    Rsmr_workload.Driver.run_closed ~cluster ~n_clients:8
      ~first_client_id:(client + 1)
      ~gen:(fun ~client:_ ~seq:_ -> Rsmr_workload.Tenant.next gen)
      ~window:4 ~start ~duration:6.0 ()
  in
  let pairs = [ (0.5, 2.0); (3.5, 5.0) ] in
  let moves = 2 * List.length pairs and moves_done = ref 0 in
  let move ~at ~from_ ~to_ =
    ignore
      (Engine.at engine ~time:(start +. at) (fun () ->
           Platform.Core.rebalance pf ~node:2 ~from_ ~to_
             ~on_done:(fun ok -> if ok then incr moves_done)
             ()))
  in
  List.iter
    (fun (out_at, back_at) ->
      move ~at:out_at ~from_:0 ~to_:1;
      move ~at:back_at ~from_:1 ~to_:0)
    pairs;
  let svc = Rsmr_obs.Registry.counters (Platform.Core.obs pf) "svc"
  and net = Rsmr_obs.Registry.counters (Platform.Core.obs pf) "net" in
  let chunks0 = Counters.get svc "chunks_sent"
  and bytes0 = Counters.get svc "transfer_bytes" in
  let retries0 = Platform.Core.endpoint_counter_total pf "retries" in
  Engine.run engine ~until:(start +. 8.0);
  Alcotest.(check int) "every move done" moves !moves_done;
  Alcotest.(check int) "every request answered"
    stats.Rsmr_workload.Driver.submitted stats.Rsmr_workload.Driver.completed;
  Alcotest.(check int) "client retries" 0
    (Platform.Core.endpoint_counter_total pf "retries" - retries0);
  Alcotest.(check int) "one fetch per move" moves
    (Counters.get net "sent.fetch_state");
  Alcotest.(check int) "one remote activation per move" moves
    (Counters.get svc "transfers");
  (* Writes replace values of the same size, so a shard's state is as
     large at every move as at the end: the bytes sent are at most one
     copy of it per move. *)
  let smallest_state =
    List.fold_left
      (fun acc s ->
        match
          Platform.Core.Shard_svc.app_state (Platform.Core.shard pf s)
            (List.hd (Platform.Core.shard_members pf s))
        with
        | Some st -> min acc (String.length (Kv.snapshot st))
        | None -> Alcotest.fail "shard member holds no state")
      max_int [ 0; 1 ]
  in
  let bytes = Counters.get svc "transfer_bytes" - bytes0 in
  Alcotest.(check bool) "at most one snapshot's bytes per move" true
    (bytes < (moves + 1) * smallest_state);
  Alcotest.(check int) "chunks_sent: one snapshot per move"
    (moves * (((bytes / moves) + Snapshot.chunk_bytes - 1) / Snapshot.chunk_bytes))
    (Counters.get svc "chunks_sent" - chunks0)

let () =
  Alcotest.run "shard"
    [
      ( "keyspace",
        [
          Alcotest.test_case "routing" `Quick test_keyspace_routing;
          Alcotest.test_case "validation" `Quick test_keyspace_validation;
        ] );
      ( "dir_client",
        [
          Alcotest.test_case "publish then lookup" `Quick
            test_dir_client_publish_lookup;
          Alcotest.test_case "stale publish dropped" `Quick
            test_dir_client_stale_publish_dropped;
        ] );
      ( "platform",
        [
          Alcotest.test_case "routes and replies" `Quick
            test_platform_routes_and_replies;
          Alcotest.test_case "client id guard" `Quick
            test_platform_client_id_guard;
          Alcotest.test_case "rebalance moves node" `Quick
            test_rebalance_moves_node;
          Alcotest.test_case "rebalance updates directory" `Quick
            test_rebalance_updates_directory;
          Alcotest.test_case "one snapshot per move" `Quick
            test_one_snapshot_per_move;
        ] );
    ]
