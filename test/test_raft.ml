(* Tests for the natively-reconfigurable Raft baseline: elections,
   replication, compaction + InstallSnapshot, single-server membership
   changes and full fleet replacement. *)

module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Node_id = Rsmr_net.Node_id
module Kv = Rsmr_app.Kv
module Counter = Rsmr_app.Counter
module Raft_log = Rsmr_baselines.Raft_log
module Raft_msg = Rsmr_baselines.Raft_msg
module KvRaft = Rsmr_baselines.Raft.Make (Rsmr_app.Kv)
module CtrRaft = Rsmr_baselines.Raft.Make (Rsmr_app.Counter)

(* Faults and membership changes go through the cluster's control
   surface. *)
let crash (c : Rsmr_iface.Cluster.t) =
  Rsmr_iface.Overlay.crash c.Rsmr_iface.Cluster.control
let reconfigure (c : Rsmr_iface.Cluster.t) =
  Rsmr_iface.Overlay.reconfigure c.Rsmr_iface.Cluster.control

(* --- log units --- *)

let entry term payload = { Raft_log.term; payload }

let test_log_append_get () =
  let l = Raft_log.create () in
  Alcotest.(check int) "empty last" 0 (Raft_log.last_index l);
  let i1 = Raft_log.append l (entry 1 Raft_log.Noop) in
  Alcotest.(check int) "first index is 1" 1 i1;
  let _ = Raft_log.append l (entry 1 (Raft_log.App { client = 9; seq = 1; low_water = 0; cmd = "c" })) in
  Alcotest.(check int) "last" 2 (Raft_log.last_index l);
  Alcotest.(check (option int)) "term at 1" (Some 1) (Raft_log.term_at l 1);
  Alcotest.(check (option int)) "term at base" (Some 0) (Raft_log.term_at l 0);
  Alcotest.(check (option int)) "term beyond" None (Raft_log.term_at l 3)

let test_log_truncate () =
  let l = Raft_log.create () in
  for i = 1 to 5 do
    ignore (Raft_log.append l (entry i Raft_log.Noop))
  done;
  Raft_log.truncate_from l 3;
  Alcotest.(check int) "truncated" 2 (Raft_log.last_index l);
  let i = Raft_log.append l (entry 9 Raft_log.Noop) in
  Alcotest.(check int) "append after truncate" 3 i;
  Alcotest.(check (option int)) "new term" (Some 9) (Raft_log.term_at l 3)

let test_log_compaction () =
  let l = Raft_log.create () in
  for i = 1 to 10 do
    ignore (Raft_log.append l (entry ((i / 3) + 1) Raft_log.Noop))
  done;
  Raft_log.compact_to l 6;
  Alcotest.(check int) "base moved" 6 (Raft_log.base_index l);
  Alcotest.(check int) "last unchanged" 10 (Raft_log.last_index l);
  Alcotest.(check (option int)) "below base inaccessible" None
    (Raft_log.term_at l 5);
  Alcotest.(check bool) "entries above base alive" true
    (Raft_log.get l 7 <> None);
  let entries = Raft_log.entries_from l 1 ~max:100 in
  Alcotest.(check (list int)) "entries_from clamps to base+1" [ 7; 8; 9; 10 ]
    (List.map fst entries)

let test_log_latest_config () =
  let l = Raft_log.create () in
  ignore (Raft_log.append l (entry 1 Raft_log.Noop));
  Alcotest.(check bool) "no config" true (Raft_log.latest_config l = None);
  ignore (Raft_log.append l (entry 1 (Raft_log.Config [ 0; 1 ])));
  ignore (Raft_log.append l (entry 1 Raft_log.Noop));
  ignore (Raft_log.append l (entry 2 (Raft_log.Config [ 0; 1; 2 ])));
  Alcotest.(check bool) "latest config" true
    (Raft_log.latest_config l = Some [ 0; 1; 2 ]);
  Raft_log.truncate_from l 4;
  Alcotest.(check bool) "config reverts on truncation" true
    (Raft_log.latest_config l = Some [ 0; 1 ])

let test_msg_roundtrip () =
  let cases =
    [
      Raft_msg.Request_vote { term = 3; last_index = 10; last_term = 2 };
      Raft_msg.Vote { term = 3; granted = true };
      Raft_msg.Append
        {
          term = 4;
          prev_index = 9;
          prev_term = 3;
          entries =
            [
              (10, entry 4 Raft_log.Noop);
              (11, entry 4 (Raft_log.App { client = 7; seq = 2; low_water = 1; cmd = "x" }));
              (12, entry 4 (Raft_log.Config [ 1; 2; 3 ]));
            ];
          commit = 9;
        };
      Raft_msg.Append_reply { term = 4; success = false; match_index = 5 };
      Raft_msg.Install_snapshot
        {
          term = 4;
          last_index = 20;
          last_term = 3;
          members = [ 1; 2 ];
          offset = 128;
          data = "blob";
          is_last = true;
        };
      Raft_msg.Snapshot_chunk_ok { term = 4; offset = 192 };
      Raft_msg.Snapshot_reply { term = 4; last_index = 20 };
    ]
  in
  List.iter
    (fun m ->
      if Raft_msg.decode (Raft_msg.encode m) <> m then
        Alcotest.failf "roundtrip failed for %a" Raft_msg.pp m)
    cases

(* --- end-to-end harness --- *)

type harness = {
  engine : Engine.t;
  svc : KvRaft.t;
  cluster : Rsmr_iface.Cluster.t;
  replies : (Node_id.t * int, string) Hashtbl.t;
}

let run_until h ~deadline pred =
  let rec loop horizon =
    Engine.run ~until:horizon h.engine;
    if pred () then ()
    else if horizon >= deadline then
      Alcotest.failf "condition not reached by t=%g" deadline
    else loop (horizon +. 0.05)
  in
  loop (Engine.now h.engine +. 0.05)

let harness ?(seed = 1) ?drop ?snapshot_threshold ?universe ~members ~clients () =
  let engine = Engine.create ~seed () in
  let svc =
    KvRaft.create ~engine ?drop ?snapshot_threshold ?universe ~members ()
  in
  let cluster = KvRaft.cluster svc in
  let replies = Hashtbl.create 64 in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client ~seq ~rsp ->
      Hashtbl.replace replies (client, seq) rsp);
  List.iter cluster.Rsmr_iface.Cluster.add_client clients;
  { engine; svc; cluster; replies }

let submit h ~client ~seq cmd =
  h.cluster.Rsmr_iface.Cluster.submit ~client ~seq ~cmd:(Kv.encode_command cmd)

let reply_of h ~client ~seq =
  Option.map Kv.decode_response (Hashtbl.find_opt h.replies (client, seq))

let has_reply h ~client ~seq = Hashtbl.mem h.replies (client, seq)
let c1 = 100

let test_election_and_command () =
  let h = harness ~members:[ 0; 1; 2 ] ~clients:[ c1 ] () in
  submit h ~client:c1 ~seq:1 (Kv.Put ("a", "1"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  Alcotest.(check bool) "put acked" true (reply_of h ~client:c1 ~seq:1 = Some Kv.Ok);
  Alcotest.(check bool) "a leader exists" true (KvRaft.leader h.svc <> None);
  submit h ~client:c1 ~seq:2 (Kv.Get "a");
  run_until h ~deadline:10.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  Alcotest.(check bool) "get sees put" true
    (reply_of h ~client:c1 ~seq:2 = Some (Kv.Value (Some "1")))

let test_replicas_converge () =
  let h = harness ~members:[ 0; 1; 2 ] ~clients:[ c1 ] () in
  for i = 1 to 30 do
    submit h ~client:c1 ~seq:i (Kv.Put (Printf.sprintf "k%d" i, string_of_int i))
  done;
  run_until h ~deadline:15.0 (fun () ->
      List.for_all (fun i -> has_reply h ~client:c1 ~seq:i)
        (List.init 30 (fun i -> i + 1)));
  (* All replicas converge to the same state. *)
  run_until h ~deadline:25.0 (fun () ->
      List.for_all
        (fun n ->
          match KvRaft.app_state h.svc n with
          | Some st -> Kv.cardinal st = 30
          | None -> false)
        [ 0; 1; 2 ]);
  let snap n =
    match KvRaft.app_state h.svc n with
    | Some st -> Kv.snapshot st
    | None -> ""
  in
  Alcotest.(check string) "0=1" (snap 0) (snap 1);
  Alcotest.(check string) "1=2" (snap 1) (snap 2)

let test_leader_crash_failover () =
  let h = harness ~members:[ 0; 1; 2 ] ~clients:[ c1 ] () in
  submit h ~client:c1 ~seq:1 (Kv.Put ("pre", "crash"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  let l0 =
    match KvRaft.leader h.svc with Some l -> l | None -> Alcotest.fail "no leader"
  in
  crash h.cluster l0;
  submit h ~client:c1 ~seq:2 (Kv.Put ("post", "crash"));
  run_until h ~deadline:20.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  submit h ~client:c1 ~seq:3 (Kv.Get "pre");
  run_until h ~deadline:25.0 (fun () -> has_reply h ~client:c1 ~seq:3);
  Alcotest.(check bool) "history survives failover" true
    (reply_of h ~client:c1 ~seq:3 = Some (Kv.Value (Some "crash")))

let test_exactly_once_retry () =
  let engine = Engine.create ~seed:7 () in
  let svc = CtrRaft.create ~engine ~members:[ 0; 1; 2 ] () in
  let cluster = CtrRaft.cluster svc in
  let replies = Hashtbl.create 8 in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client:_ ~seq ~rsp ->
      Hashtbl.replace replies seq rsp);
  cluster.Rsmr_iface.Cluster.add_client c1;
  let incr = Counter.encode_command (Counter.Incr 1) in
  cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq:1 ~cmd:incr;
  ignore
    (Engine.schedule engine ~delay:0.8 (fun () ->
         cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq:1 ~cmd:incr));
  Engine.run ~until:4.0 engine;
  cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq:2
    ~cmd:(Counter.encode_command Counter.Read);
  Engine.run ~until:8.0 engine;
  match Hashtbl.find_opt replies 2 with
  | Some rsp ->
    let (Counter.Current v) = Counter.decode_response rsp in
    Alcotest.(check int) "applied exactly once" 1 v
  | None -> Alcotest.fail "no read reply"

let test_add_server () =
  let h =
    harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3 ] ~clients:[ c1 ] ()
  in
  submit h ~client:c1 ~seq:1 (Kv.Put ("x", "1"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  reconfigure h.cluster [ 0; 1; 2; 3 ];
  run_until h ~deadline:20.0 (fun () ->
      match KvRaft.leader h.svc with
      | Some l -> KvRaft.config_of h.svc l = Some [ 0; 1; 2; 3 ]
      | None -> false);
  (* The new server catches up and holds the data. *)
  run_until h ~deadline:30.0 (fun () ->
      match KvRaft.app_state h.svc 3 with
      | Some st -> Kv.find st "x" = Some "1"
      | None -> false)

let test_remove_server () =
  let h = harness ~members:[ 0; 1; 2; 3; 4 ] ~clients:[ c1 ] () in
  submit h ~client:c1 ~seq:1 (Kv.Put ("x", "1"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  reconfigure h.cluster [ 0; 1; 2 ];
  run_until h ~deadline:20.0 (fun () ->
      match KvRaft.leader h.svc with
      | Some l -> KvRaft.config_of h.svc l = Some [ 0; 1; 2 ]
      | None -> false);
  submit h ~client:c1 ~seq:2 (Kv.Get "x");
  run_until h ~deadline:30.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  Alcotest.(check bool) "shrunk cluster serves" true
    (reply_of h ~client:c1 ~seq:2 = Some (Kv.Value (Some "1")))

let test_full_replacement () =
  let h =
    harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ] ~clients:[ c1 ]
      ()
  in
  for i = 1 to 5 do
    submit h ~client:c1 ~seq:i (Kv.Put (Printf.sprintf "k%d" i, "v"))
  done;
  run_until h ~deadline:10.0 (fun () -> has_reply h ~client:c1 ~seq:5);
  reconfigure h.cluster [ 3; 4; 5 ];
  run_until h ~deadline:60.0 (fun () ->
      match KvRaft.leader h.svc with
      | Some l ->
        List.mem l [ 3; 4; 5 ] && KvRaft.config_of h.svc l = Some [ 3; 4; 5 ]
      | None -> false);
  submit h ~client:c1 ~seq:6 (Kv.Get "k3");
  run_until h ~deadline:90.0 (fun () -> has_reply h ~client:c1 ~seq:6);
  Alcotest.(check bool) "data crossed replacement" true
    (reply_of h ~client:c1 ~seq:6 = Some (Kv.Value (Some "v")));
  (* Old nodes end up out of the configuration (halted or at least not
     leading). *)
  match KvRaft.leader h.svc with
  | Some l -> Alcotest.(check bool) "leader is a new node" true (List.mem l [ 3; 4; 5 ])
  | None -> Alcotest.fail "no leader at end"

(* A leader that a membership step removes must not strand the requests
   it appended but never applied: as it stops serving it redirects their
   clients, and its redirects never name itself.  Clients stream puts,
   interleaved, across the removal of the leader; the slowest answer must
   come well inside the 0.5 s request timeout, which a stranded request
   waits out in full.  In each case below the remaining members elect a
   leader within about 0.15 s, and before the fix each left at least one
   request to its timeout (slowest answer 0.50-0.52 s). *)
let slowest_answer_across_removal ~seed ~gap ~nclients =
  let clients = List.init nclients (fun i -> c1 + i) in
  let h = harness ~seed ~members:[ 0; 1; 2 ] ~clients () in
  List.iter (fun c -> submit h ~client:c ~seq:1 (Kv.Put ("x", "0"))) clients;
  run_until h ~deadline:5.0 (fun () ->
      List.for_all (fun c -> has_reply h ~client:c ~seq:1) clients);
  let l0 =
    match KvRaft.leader h.svc with Some l -> l | None -> Alcotest.fail "no leader"
  in
  let sent = Hashtbl.create 512 and answered = Hashtbl.create 512 in
  h.cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client ~seq ~rsp ->
      Hashtbl.replace h.replies (client, seq) rsp;
      if seq > 1 && not (Hashtbl.mem answered (client, seq)) then
        Hashtbl.replace answered (client, seq) (Engine.now h.engine));
  let n = 100 in
  List.iteri
    (fun ci c ->
      for seq = 2 to n do
        let delay =
          (float_of_int (seq - 2) +. (float_of_int ci /. float_of_int nclients))
          *. gap
        in
        ignore
          (Engine.schedule h.engine ~delay (fun () ->
               Hashtbl.replace sent (c, seq) (Engine.now h.engine);
               submit h ~client:c ~seq (Kv.Put ("x", string_of_int seq))))
      done)
    clients;
  reconfigure h.cluster (List.filter (fun m -> m <> l0) [ 0; 1; 2 ]);
  run_until h ~deadline:(Engine.now h.engine +. 10.0) (fun () ->
      Hashtbl.length answered = nclients * (n - 1));
  Hashtbl.fold
    (fun k at acc -> Float.max acc (at -. Hashtbl.find sent k))
    answered 0.

let test_removed_leader_strands_nothing () =
  List.iter
    (fun (seed, gap, nclients) ->
      let slowest = slowest_answer_across_removal ~seed ~gap ~nclients in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, %d clients every %g s: slowest answer %.3f s"
           seed nclients gap slowest)
        true (slowest < 0.4))
    [ (1, 0.001, 4); (2, 0.0003, 4); (3, 0.0001, 4); (5, 0.0001, 4);
      (6, 0.003, 8); (7, 0.003, 4); (8, 0.001, 1) ]

let test_compaction_and_install_snapshot () =
  let h =
    harness ~snapshot_threshold:32 ~members:[ 0; 1; 2 ]
      ~universe:[ 0; 1; 2; 3 ] ~clients:[ c1 ] ()
  in
  for i = 1 to 100 do
    submit h ~client:c1 ~seq:i (Kv.Put (Printf.sprintf "k%03d" i, "v"))
  done;
  run_until h ~deadline:30.0 (fun () ->
      List.for_all (fun i -> has_reply h ~client:c1 ~seq:i)
        (List.init 100 (fun i -> i + 1)));
  (* Compaction must have happened somewhere. *)
  run_until h ~deadline:40.0 (fun () ->
      Counters.get (KvRaft.counters h.svc) "compactions" > 0);
  (* Now add a fresh server: it is too far behind the compacted logs and
     must be fed an InstallSnapshot. *)
  reconfigure h.cluster [ 0; 1; 2; 3 ];
  run_until h ~deadline:80.0 (fun () ->
      match KvRaft.app_state h.svc 3 with
      | Some st -> Kv.cardinal st = 100
      | None -> false);
  Alcotest.(check bool) "snapshot was shipped" true
    (Counters.get (KvRaft.counters h.svc) "snapshots_installed" >= 1)

let test_commit_under_loss () =
  let h = harness ~seed:5 ~drop:0.08 ~members:[ 0; 1; 2 ] ~clients:[ c1 ] () in
  for i = 1 to 15 do
    submit h ~client:c1 ~seq:i (Kv.Put (Printf.sprintf "k%d" i, "v"))
  done;
  run_until h ~deadline:60.0 (fun () ->
      List.for_all (fun i -> has_reply h ~client:c1 ~seq:i)
        (List.init 15 (fun i -> i + 1)))

let prop_log_prefix_agreement =
  QCheck.Test.make ~name:"kv state converges under crash + loss" ~count:10
    QCheck.(pair small_int (float_range 0.0 0.08))
    (fun (seed, drop) ->
      let h = harness ~seed:(seed + 1) ~drop ~members:[ 0; 1; 2; 3; 4 ] ~clients:[ c1 ] () in
      for i = 1 to 20 do
        ignore
          (Engine.schedule h.engine
             ~delay:(0.3 +. (float_of_int i *. 0.08))
             (fun () ->
               submit h ~client:c1 ~seq:i (Kv.Put (Printf.sprintf "k%d" i, "v"))))
      done;
      ignore
        (Engine.schedule h.engine ~delay:1.0 (fun () ->
             crash h.cluster (seed mod 5)));
      Engine.run ~until:60.0 h.engine;
      (* All replies arrived despite the crash. *)
      List.for_all (fun i -> has_reply h ~client:c1 ~seq:i)
        (List.init 20 (fun i -> i + 1)))

(* --- a scripted single-server-change interleaving ---

   The interleaving that single-server membership changes are unsafe
   under unless a leader first commits an entry of its own term (Ongaro,
   2015):
   - L1 leads C0 = {0,1,2,3}, appends C1 = C0 + {4} and reaches only
     node 4 before it is cut off;
   - L2 wins under C0 (votes from X and Y), Y is cut off at once, and L2
     appends C2 = C0 - {L1} and commits it and a put under C2's quorum
     {L2, X};
   - L1 returns next to Y and node 4 and wins under C1's quorum
     {L1, Y, 4}: Y holds no entry of L2's term, so L1's log is at least
     as up to date as Y's.  L1 then commits a put of its own.
   If both puts commit, two values are committed at the same index, and
   X and Y have applied histories neither of which is a prefix of the
   other.  Raw client ids drive the leaders directly, so the script
   chooses who hears what. *)

module Raft_wire = Rsmr_baselines.Raft_wire
module Client_msg = Rsmr_client.Client_msg
module Network = Rsmr_net.Network

let test_config_change_waits_for_current_term () =
  let engine = Engine.create ~seed:1 () in
  let svc =
    KvRaft.create ~engine ~members:[ 0; 1; 2; 3 ] ~universe:[ 0; 1; 2; 3; 4 ] ()
  in
  let net = KvRaft.net svc in
  let client_a = 900 and client_b = 901 and admin = 950 in
  let clients = [ client_a; client_b; admin ] in
  let replies = Hashtbl.create 8 in
  List.iter
    (fun id ->
      Network.register net id (fun env ->
          match env.Network.payload with
          | Raft_wire.Client (Client_msg.Reply { seq; rsp }) ->
            Hashtbl.replace replies (id, seq) rsp
          | _ -> ()))
    clients;
  let replied src seq = Hashtbl.mem replies (src, seq) in
  let request ~src ~dst ~seq payload =
    Network.send net ~src ~dst
      (Raft_wire.Client (Client_msg.Request { seq; low_water = 0; payload }))
  in
  (* Re-send every 50 ms until answered or [deadline]; the session table
     makes the re-sends harmless. *)
  let request_until ~src ~dst ~seq ~deadline payload =
    let rec go () =
      request ~src ~dst ~seq payload;
      ignore
        (Engine.run_until engine
           ~pred:(fun () -> replied src seq)
           ~deadline:(Float.min deadline (Engine.now engine +. 0.05)));
      if (not (replied src seq)) && Engine.now engine < deadline then go ()
    in
    go ();
    replied src seq
  in
  let put k v = Client_msg.Cmd (Kv.encode_command (Kv.Put (k, v))) in
  let leader () =
    match KvRaft.leader svc with
    | Some l -> l
    | None -> Alcotest.fail "no leader"
  in
  (* C0 elects L1, which commits a put everywhere. *)
  ignore
    (Engine.run_until engine
       ~pred:(fun () -> KvRaft.leader svc <> None)
       ~deadline:5.0);
  let l1 = leader () in
  Alcotest.(check bool) "L1 commits" true
    (request_until ~src:client_a ~dst:l1 ~seq:1 ~deadline:6.0 (put "init" "0"));
  Engine.run ~until:(Engine.now engine +. 0.2) engine;
  (* L1 appends C1 = C0 + {4}, which reaches node 4 only. *)
  let others = List.filter (fun m -> m <> l1) [ 0; 1; 2; 3 ] in
  List.iter
    (fun m ->
      Network.set_link_fault net ~src:l1 ~dst:m ~drop:1.0;
      Network.set_link_fault net ~src:m ~dst:l1 ~drop:1.0)
    others;
  request ~src:admin ~dst:l1 ~seq:1
    (Client_msg.Change_membership [ 0; 1; 2; 3; 4 ]);
  Engine.run ~until:(Engine.now engine +. 0.1) engine;
  Alcotest.(check (option (list int))) "L1 runs C1" (Some [ 0; 1; 2; 3; 4 ])
    (KvRaft.config_of svc l1);
  (* L1 goes down; the moment L2 wins, Y is cut off from L2's side, with
     L2's first appends still in flight (a partition cuts those too). *)
  Network.crash net l1;
  Network.clear_link_faults net;
  ignore
    (Engine.run_until engine
       ~pred:(fun () -> KvRaft.leader svc <> None)
       ~deadline:(Engine.now engine +. 5.0));
  let l2 = leader () in
  let x, y =
    match List.filter (fun m -> m <> l2) others with
    | [ x; y ] -> (x, y)
    | _ -> Alcotest.fail "expected two followers of L2"
  in
  Network.partition net [ l2 :: x :: clients; l1 :: y :: 4 :: clients ];
  (* L2 removes L1 and puts [via_l2]. *)
  request ~src:admin ~dst:l2 ~seq:2
    (Client_msg.Change_membership others);
  let l2_put =
    request_until ~src:client_a ~dst:l2 ~seq:2
      ~deadline:(Engine.now engine +. 2.0) (put "via_l2" "a")
  in
  (* L1 returns on Y's and node 4's side and puts [via_l1]. *)
  Network.recover net l1;
  let l1_put =
    request_until ~src:client_b ~dst:l1 ~seq:1
      ~deadline:(Engine.now engine +. 5.0) (put "via_l1" "b")
  in
  Alcotest.(check bool) "L1 wins under C1 and commits" true l1_put;
  Engine.run ~until:(Engine.now engine +. 0.5) engine;
  let has node k =
    match KvRaft.app_state svc node with
    | Some st -> Kv.find st k <> None
    | None -> false
  in
  let nodes = [ 0; 1; 2; 3; 4 ] in
  let diverged =
    List.exists
      (fun p ->
        has p "via_l2" && (not (has p "via_l1"))
        && List.exists (fun q -> has q "via_l1" && not (has q "via_l2")) nodes)
      nodes
  in
  if diverged then
    Alcotest.failf
      "two committed histories: L2=n%d acked via_l2 (%b), L1=n%d acked via_l1, \
       and neither applied history extends the other"
      l2 l2_put l1;
  (* With the current-term rule, L2 cannot commit under C0 without L1 or
     Y, so it never appends C2 and never acknowledges its put. *)
  Alcotest.(check bool) "L2 acknowledged nothing" false l2_put;
  Alcotest.(check bool) "C2 was never acknowledged" false (replied admin 2)

let () =
  Alcotest.run "raft"
    [
      ( "log",
        [
          Alcotest.test_case "append/get" `Quick test_log_append_get;
          Alcotest.test_case "truncate" `Quick test_log_truncate;
          Alcotest.test_case "compaction" `Quick test_log_compaction;
          Alcotest.test_case "latest config" `Quick test_log_latest_config;
          Alcotest.test_case "msg roundtrip" `Quick test_msg_roundtrip;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "election and command" `Quick
            test_election_and_command;
          Alcotest.test_case "replicas converge" `Quick test_replicas_converge;
          Alcotest.test_case "leader crash failover" `Quick
            test_leader_crash_failover;
          Alcotest.test_case "exactly-once retry" `Quick test_exactly_once_retry;
          Alcotest.test_case "commit under loss" `Quick test_commit_under_loss;
          QCheck_alcotest.to_alcotest prop_log_prefix_agreement;
        ] );
      ( "membership",
        [
          Alcotest.test_case "add server" `Quick test_add_server;
          Alcotest.test_case "remove server" `Quick test_remove_server;
          Alcotest.test_case "removed leader strands nothing" `Quick
            test_removed_leader_strands_nothing;
          Alcotest.test_case "full replacement" `Quick test_full_replacement;
          Alcotest.test_case "config change waits for a current-term commit"
            `Quick test_config_change_waits_for_current_term;
          Alcotest.test_case "compaction + install snapshot" `Quick
            test_compaction_and_install_snapshot;
        ] );
    ]
