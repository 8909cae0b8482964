(* Tests for the static Multi-Paxos building block: elections, ordered
   delivery, agreement under crashes / loss / partitions. *)

module Engine = Rsmr_sim.Engine
module Network = Rsmr_net.Network
module Latency = Rsmr_net.Latency
module Ballot = Rsmr_smr.Ballot
module Config = Rsmr_smr.Config
module Log = Rsmr_smr.Log
module Msg = Rsmr_smr.Msg
module Replica = Rsmr_smr.Replica
module Params = Rsmr_smr.Params

(* --- unit tests for sub-modules --- *)

let test_ballot_order () =
  let b1 = { Ballot.round = 1; node = 2 } in
  let b2 = { Ballot.round = 1; node = 3 } in
  let b3 = { Ballot.round = 2; node = 0 } in
  Alcotest.(check bool) "zero smallest" true Ballot.(zero < b1);
  Alcotest.(check bool) "node breaks ties" true Ballot.(b1 < b2);
  Alcotest.(check bool) "round dominates" true Ballot.(b2 < b3);
  let n = Ballot.next b2 7 in
  Alcotest.(check bool) "next is larger" true Ballot.(b2 < n);
  Alcotest.(check int) "next owned by me" 7 n.Ballot.node

let test_config_quorum () =
  let c = Config.make ~instance_id:0 ~members:[ 3; 1; 2; 1 ] in
  Alcotest.(check int) "dedup" 3 (Config.size c);
  Alcotest.(check int) "quorum of 3" 2 (Config.quorum c);
  Alcotest.(check bool) "member" true (Config.is_member c 2);
  Alcotest.(check bool) "non member" false (Config.is_member c 9);
  Alcotest.(check (list int)) "others" [ 1; 3 ] (Config.others c 2);
  let c5 = Config.make ~instance_id:1 ~members:[ 0; 1; 2; 3; 4 ] in
  Alcotest.(check int) "quorum of 5" 3 (Config.quorum c5)

let test_config_roundtrip () =
  let c = Config.make ~instance_id:7 ~members:[ 4; 0; 2 ] in
  let w = Rsmr_app.Codec.Writer.create () in
  Config.encode w c;
  let c' =
    Config.decode
      (Rsmr_app.Codec.Reader.of_string (Rsmr_app.Codec.Writer.contents w))
  in
  Alcotest.(check int) "instance id" c.Config.instance_id c'.Config.instance_id;
  Alcotest.(check (list int)) "members" c.Config.members c'.Config.members

let test_log_basics () =
  let l = Log.create () in
  Alcotest.(check int) "empty length" 0 (Log.length l);
  Log.set_at l 2 ~ballot:Ballot.zero (Log.Value "x");
  Alcotest.(check int) "length tracks highest" 3 (Log.length l);
  Alcotest.(check bool) "hole is None" true (Log.get l 0 = None);
  Log.set_at l 0 ~ballot:Ballot.zero (Log.Value "a");
  Log.mark_committed l 0;
  Alcotest.(check int) "prefix after 0" 1 (Log.committed_prefix l);
  Log.mark_committed l 2;
  Alcotest.(check int) "gap blocks prefix" 1 (Log.committed_prefix l);
  Log.set_committed l 1 Log.Noop;
  Alcotest.(check int) "prefix jumps over filled gap" 3 (Log.committed_prefix l)

let msg_roundtrip_cases =
  [
    Msg.Prepare { ballot = { Ballot.round = 3; node = 1 }; from_index = 7 };
    Msg.Promise
      {
        ballot = { Ballot.round = 3; node = 1 };
        from_index = 7;
        entries =
          [
            (7, { Log.ballot = { Ballot.round = 2; node = 0 }; kind = Log.Noop });
            (9, { Log.ballot = { Ballot.round = 1; node = 2 }; kind = Log.Value "cmd" });
          ];
        commit_index = 6;
      };
    Msg.Reject
      { ballot = { Ballot.round = 1; node = 1 }; higher = { Ballot.round = 5; node = 0 } };
    Msg.Accept
      {
        ballot = { Ballot.round = 2; node = 2 };
        index = 4;
        kind = Log.Value "v";
        commit_index = 3;
      };
    Msg.Accepted { ballot = { Ballot.round = 2; node = 2 }; index = 4 };
    Msg.Heartbeat { ballot = { Ballot.round = 2; node = 2 }; commit_index = 10 };
    Msg.Learn_req { from_index = 3 };
    Msg.Learn_rsp
      { entries = [ (3, Log.Value "a"); (4, Log.Noop) ]; commit_index = 5 };
    Msg.Submit { value = "payload" };
    Msg.Submit_multi { values = [ "first"; "second"; "third" ] };
    Msg.Accept_multi
      {
        ballot = { Ballot.round = 4; node = 1 };
        from_index = 12;
        kinds = [ Log.Value "a"; Log.Noop; Log.Value "b" ];
        commit_index = 11;
      };
    Msg.Accepted_multi
      { ballot = { Ballot.round = 4; node = 1 }; from_index = 12; upto = 14 };
  ]

let test_msg_roundtrip () =
  List.iter
    (fun m ->
      let m' = Msg.decode (Msg.encode m) in
      if m' <> m then
        Alcotest.failf "roundtrip failed for %a" Msg.pp m)
    msg_roundtrip_cases

let test_msg_size_positive () =
  List.iter
    (fun m ->
      if Msg.size m <= 0 then Alcotest.failf "non-positive size for %a" Msg.pp m)
    msg_roundtrip_cases

(* --- cluster harness --- *)

module Cluster = struct
  type t = {
    engine : Engine.t;
    net : Msg.t Network.t;
    replicas : Replica.t array;
    decided : (int * string) list ref array; (* newest first *)
  }

  (* [tap] sees every message a replica sends, before the network does. *)
  let create ?(seed = 1) ?(drop = 0.0) ?(latency = Latency.lan)
      ?(params = Params.default) ?obs ?(tap = fun ~src:_ ~dst:_ _ -> ()) n =
    let engine = Engine.create ~seed () in
    let net =
      Network.create engine ~latency ~drop ~tagger:Msg.tag ~sizer:Msg.size ()
    in
    let cfg = Config.make ~instance_id:0 ~members:(List.init n Fun.id) in
    let decided = Array.init n (fun _ -> ref []) in
    let replicas =
      Array.init n (fun i ->
          Replica.create ~engine ~params ~config:cfg ~me:i
            ~send:(fun ~dst msg ->
              tap ~src:i ~dst msg;
              Network.send net ~src:i ~dst msg)
            ?obs
            ~on_decide:(fun idx v -> decided.(i) := (idx, v) :: !(decided.(i)))
            ())
    in
    Array.iteri
      (fun i r ->
        Network.register net i (fun env ->
            Replica.handle r ~src:env.Network.src env.Network.payload))
      replicas;
    { engine; net; replicas; decided }

  let run t ~until = Engine.run ~until t.engine

  let leader t =
    let rec find i =
      if i >= Array.length t.replicas then None
      else if Replica.is_leader t.replicas.(i) && not (Network.is_crashed t.net i)
      then Some i
      else find (i + 1)
    in
    find 0

  let decided_values t i = List.rev_map snd !(t.decided.(i))

  (* Submit via the current leader if any, else via replica 0. *)
  let submit t v =
    let target = Option.value (leader t) ~default:0 in
    Replica.submit t.replicas.(target) v
end

let run_until_leader cluster ~deadline =
  let rec loop horizon =
    Cluster.run cluster ~until:horizon;
    match Cluster.leader cluster with
    | Some l -> l
    | None ->
      if horizon >= deadline then Alcotest.fail "no leader elected in time"
      else loop (horizon +. 0.05)
  in
  loop 0.05

let test_election () =
  let c = Cluster.create 3 in
  let leader = run_until_leader c ~deadline:2.0 in
  Alcotest.(check bool) "leader exists" true (leader >= 0 && leader < 3);
  (* Exactly one leader in steady state. *)
  Cluster.run c ~until:3.0;
  let leaders =
    Array.to_list c.Cluster.replicas
    |> List.filter Replica.is_leader |> List.length
  in
  Alcotest.(check int) "exactly one leader" 1 leaders

let test_single_command () =
  let c = Cluster.create 3 in
  let _ = run_until_leader c ~deadline:2.0 in
  Cluster.submit c "hello";
  Cluster.run c ~until:5.0;
  for i = 0 to 2 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d decided" i)
      [ "hello" ]
      (Cluster.decided_values c i)
  done

let test_many_commands_agree () =
  let c = Cluster.create 5 in
  let _ = run_until_leader c ~deadline:2.0 in
  for i = 1 to 50 do
    Cluster.submit c (Printf.sprintf "cmd%02d" i)
  done;
  Cluster.run c ~until:10.0;
  let reference = Cluster.decided_values c 0 in
  Alcotest.(check int) "all 50 decided" 50 (List.length reference);
  for i = 1 to 4 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d agrees" i)
      reference
      (Cluster.decided_values c i)
  done

let test_commands_in_submission_order () =
  (* With a single stable leader and no loss, decided order must equal
     submission order. *)
  let c = Cluster.create 3 in
  let _ = run_until_leader c ~deadline:2.0 in
  let cmds = List.init 20 (Printf.sprintf "c%d") in
  List.iter (Cluster.submit c) cmds;
  Cluster.run c ~until:5.0;
  Alcotest.(check (list string)) "order preserved" cmds
    (Cluster.decided_values c 0)

let test_leader_crash_failover () =
  let c = Cluster.create 3 in
  let leader = run_until_leader c ~deadline:2.0 in
  Cluster.submit c "before-crash";
  Cluster.run c ~until:(Engine.now c.Cluster.engine +. 1.0);
  Network.crash c.Cluster.net leader;
  (* A new leader must emerge among the remaining two. *)
  let rec wait_new horizon =
    Cluster.run c ~until:horizon;
    match Cluster.leader c with
    | Some l when l <> leader -> l
    | _ ->
      if horizon > 20.0 then Alcotest.fail "no failover" else wait_new (horizon +. 0.1)
  in
  let new_leader = wait_new (Engine.now c.Cluster.engine +. 0.1) in
  Replica.submit c.Cluster.replicas.(new_leader) "after-crash";
  Cluster.run c ~until:(Engine.now c.Cluster.engine +. 2.0);
  let survivor = List.nth (List.filter (fun i -> i <> leader) [ 0; 1; 2 ]) 0 in
  Alcotest.(check (list string)) "history preserved across failover"
    [ "before-crash"; "after-crash" ]
    (Cluster.decided_values c survivor)

let test_commit_under_message_loss () =
  let c = Cluster.create ~seed:3 ~drop:0.10 3 in
  let _ = run_until_leader c ~deadline:5.0 in
  for i = 1 to 20 do
    Cluster.submit c (Printf.sprintf "lossy%02d" i)
  done;
  Cluster.run c ~until:30.0;
  (* All submitted commands eventually decided on every live replica, in
     identical order (submissions go through one leader; drops only delay). *)
  let d0 = Cluster.decided_values c 0 in
  Alcotest.(check int) "all decided despite loss" 20 (List.length d0);
  for i = 1 to 2 do
    Alcotest.(check (list string)) "replica agrees" d0 (Cluster.decided_values c i)
  done

let test_minority_partition_blocks_commit () =
  let c = Cluster.create 5 in
  let leader = run_until_leader c ~deadline:2.0 in
  (* Partition the leader together with exactly one other node: a minority. *)
  let other = if leader = 0 then 1 else 0 in
  let rest = List.filter (fun i -> i <> leader && i <> other) [ 0; 1; 2; 3; 4 ] in
  Network.partition c.Cluster.net [ [ leader; other ]; rest ];
  Replica.submit c.Cluster.replicas.(leader) "minority-cmd";
  Cluster.run c ~until:(Engine.now c.Cluster.engine +. 2.0);
  Alcotest.(check (list string)) "minority cannot commit" []
    (Cluster.decided_values c leader);
  (* Majority side elects its own leader and can commit. *)
  let majority_leader =
    match List.find_opt (fun i -> Replica.is_leader c.Cluster.replicas.(i)) rest with
    | Some l -> l
    | None -> Alcotest.fail "majority side has no leader"
  in
  Replica.submit c.Cluster.replicas.(majority_leader) "majority-cmd";
  Cluster.run c ~until:(Engine.now c.Cluster.engine +. 2.0);
  Alcotest.(check (list string)) "majority commits"
    [ "majority-cmd" ]
    (Cluster.decided_values c majority_leader);
  (* Heal: the old leader must abandon its uncommitted command and adopt
     the majority history. *)
  Network.heal c.Cluster.net;
  Cluster.run c ~until:(Engine.now c.Cluster.engine +. 5.0);
  let d = Cluster.decided_values c leader in
  Alcotest.(check bool) "healed node catches up with majority history" true
    (List.mem "majority-cmd" d);
  (* Prefix agreement across all replicas. *)
  let dvals = List.init 5 (Cluster.decided_values c) in
  List.iter
    (fun d' ->
      let rec prefix a b =
        match (a, b) with
        | [], _ | _, [] -> true
        | x :: xs, y :: ys -> x = y && prefix xs ys
      in
      Alcotest.(check bool) "pairwise prefix agreement" true
        (prefix d' (List.nth dvals 0) || prefix (List.nth dvals 0) d'))
    dvals

let test_single_member_cluster () =
  let c = Cluster.create 1 in
  let _ = run_until_leader c ~deadline:2.0 in
  Cluster.submit c "solo";
  Cluster.run c ~until:3.0;
  Alcotest.(check (list string)) "solo commit" [ "solo" ]
    (Cluster.decided_values c 0)

let test_halt_stops_participation () =
  let c = Cluster.create 3 in
  let leader = run_until_leader c ~deadline:2.0 in
  Replica.halt c.Cluster.replicas.(leader);
  Alcotest.(check bool) "halted" true (Replica.is_halted c.Cluster.replicas.(leader));
  (* Remaining replicas elect a replacement and still commit. *)
  let rec wait horizon =
    Cluster.run c ~until:horizon;
    match Cluster.leader c with
    | Some l when l <> leader -> l
    | _ -> if horizon > 20.0 then Alcotest.fail "no new leader" else wait (horizon +. 0.1)
  in
  let nl = wait (Engine.now c.Cluster.engine +. 0.1) in
  Replica.submit c.Cluster.replicas.(nl) "post-halt";
  Cluster.run c ~until:(Engine.now c.Cluster.engine +. 2.0);
  Alcotest.(check (list string)) "commit after halt" [ "post-halt" ]
    (Cluster.decided_values c nl);
  Alcotest.(check (list string)) "halted replica delivered nothing new" []
    (Cluster.decided_values c leader)

let test_follower_submit_forwards () =
  let c = Cluster.create 3 in
  let leader = run_until_leader c ~deadline:2.0 in
  let follower = if leader = 0 then 1 else 0 in
  Replica.submit c.Cluster.replicas.(follower) "via-follower";
  Cluster.run c ~until:(Engine.now c.Cluster.engine +. 2.0);
  Alcotest.(check (list string)) "forwarded and decided" [ "via-follower" ]
    (Cluster.decided_values c follower)

let test_duplicated_messages_agree () =
  (* Message duplication must not double-apply or break agreement. *)
  let engine = Engine.create ~seed:17 () in
  let net = Rsmr_net.Network.create engine ~sizer:Msg.size () in
  Rsmr_net.Network.set_duplicate net 0.3;
  let cfg = Config.make ~instance_id:0 ~members:[ 0; 1; 2 ] in
  let decided = Array.init 3 (fun _ -> ref []) in
  let replicas =
    Array.init 3 (fun i ->
        Replica.create ~engine ~params:Params.default ~config:cfg ~me:i
          ~send:(fun ~dst msg -> Rsmr_net.Network.send net ~src:i ~dst msg)
          ~on_decide:(fun idx v -> decided.(i) := (idx, v) :: !(decided.(i)))
          ())
  in
  Array.iteri
    (fun i r ->
      Rsmr_net.Network.register net i (fun env ->
          Replica.handle r ~src:env.Rsmr_net.Network.src
            env.Rsmr_net.Network.payload))
    replicas;
  Engine.run ~until:2.0 engine;
  for i = 1 to 10 do
    (match
       Array.to_list replicas |> List.find_opt Replica.is_leader
     with
     | Some leader -> Replica.submit leader (Printf.sprintf "dup%d" i)
     | None -> Alcotest.fail "no leader");
    Engine.run ~until:(Engine.now engine +. 0.2) engine
  done;
  Engine.run ~until:(Engine.now engine +. 2.0) engine;
  let d0 = List.rev_map snd !(decided.(0)) in
  Alcotest.(check int) "exactly 10 decided despite duplicates" 10
    (List.length d0);
  for i = 1 to 2 do
    Alcotest.(check (list string)) "replicas agree" d0
      (List.rev_map snd !(decided.(i)))
  done

let test_lagging_follower_catches_up_via_learn () =
  (* Cut one follower off, commit traffic, reconnect: it must recover the
     missed decisions through the Learn protocol. *)
  let c = Cluster.create 3 in
  let leader = run_until_leader c ~deadline:2.0 in
  let laggard = if leader = 0 then 1 else 0 in
  (* Block everything to the laggard. *)
  List.iter
    (fun src ->
      if src <> laggard then
        Network.set_link_fault c.Cluster.net ~src ~dst:laggard ~drop:1.0)
    [ 0; 1; 2 ];
  for i = 1 to 15 do
    Cluster.submit c (Printf.sprintf "gap%02d" i)
  done;
  Cluster.run c ~until:(Engine.now c.Cluster.engine +. 3.0);
  Alcotest.(check int) "laggard saw nothing" 0
    (List.length (Cluster.decided_values c laggard));
  Network.clear_link_faults c.Cluster.net;
  Cluster.run c ~until:(Engine.now c.Cluster.engine +. 5.0);
  Alcotest.(check int) "laggard caught up" 15
    (List.length (Cluster.decided_values c laggard));
  Alcotest.(check (list string)) "identical order"
    (Cluster.decided_values c leader)
    (Cluster.decided_values c laggard)

let test_submit_during_election_eventually_decides () =
  (* Commands submitted before any leader exists are queued/forwarded and
     decided once the election completes. *)
  let c = Cluster.create ~seed:9 3 in
  Replica.submit c.Cluster.replicas.(0) "early-bird";
  Cluster.run c ~until:5.0;
  Alcotest.(check (list string)) "queued command decided" [ "early-bird" ]
    (Cluster.decided_values c 0)

let test_batching_reduces_messages () =
  (* Same 60 commands, with and without the 2ms batching window: batching
     must deliver identical results with far fewer accept messages. *)
  let run params =
    let c = Cluster.create ?params 3 in
    let _ = run_until_leader c ~deadline:2.0 in
    for i = 1 to 60 do
      Cluster.submit c (Printf.sprintf "b%02d" i)
    done;
    Cluster.run c ~until:10.0;
    let counters = Network.counters c.Cluster.net in
    ( Cluster.decided_values c 0,
      Cluster.decided_values c 1,
      Rsmr_sim.Counters.get counters "sent.accept",
      Rsmr_sim.Counters.get counters "sent.accept_multi" )
  in
  let d0, d1, accepts, multi = run (Some Rsmr_smr.Params.unbatched) in
  Alcotest.(check int) "unbatched: all decided" 60 (List.length d0);
  Alcotest.(check (list string)) "unbatched: agreement" d0 d1;
  Alcotest.(check int) "unbatched: no multi messages" 0 multi;
  let d0', d1', accepts', multi' =
    run (Some (Rsmr_smr.Params.with_batching 0.002))
  in
  Alcotest.(check int) "batched: all decided" 60 (List.length d0');
  Alcotest.(check (list string)) "batched: agreement" d0' d1';
  Alcotest.(check bool) "batched: multi messages used" true (multi' > 0);
  Alcotest.(check bool) "batched: fewer accepts" true
    (accepts' + (multi' * 2) < accepts)

let test_batching_preserves_order () =
  let c = Cluster.create ~params:(Rsmr_smr.Params.with_batching 0.005) 3 in
  let _ = run_until_leader c ~deadline:2.0 in
  let cmds = List.init 30 (Printf.sprintf "o%02d") in
  List.iter (Cluster.submit c) cmds;
  Cluster.run c ~until:5.0;
  Alcotest.(check (list string)) "submission order preserved through batches"
    cmds (Cluster.decided_values c 0)

(* Batch split/merge FIFO property: commands arrive as vector submissions
   of random widths, under tight pipelining caps (so flush_batch must
   split batches at capacity and park the rest) and a randomized window.
   Whatever the split/merge boundaries, the decided sequence must equal
   the concatenated submission order. *)
let prop_batch_split_merge_fifo =
  QCheck.Test.make ~name:"vector submissions decide in FIFO order" ~count:30
    QCheck.(
      triple (int_range 1 5) (int_range 1 8)
        (list_of_size (Gen.int_range 1 12) (int_range 1 7)))
    (fun (max_outstanding, batch_max, widths) ->
      let params =
        {
          Rsmr_smr.Params.default with
          Rsmr_smr.Params.batch_max;
          max_outstanding;
          batch_delay = (if batch_max mod 2 = 0 then 0.0005 else 0.0);
        }
      in
      let c = Cluster.create ~seed:(max_outstanding + batch_max) ~params 3 in
      let leader = run_until_leader c ~deadline:2.0 in
      let counter = ref 0 in
      let submitted =
        List.concat_map
          (fun width ->
            let chunk =
              List.init width (fun _ ->
                  incr counter;
                  Printf.sprintf "f%03d" !counter)
            in
            Replica.submit_many c.Cluster.replicas.(leader) chunk;
            chunk)
          widths
      in
      Cluster.run c ~until:15.0;
      Cluster.decided_values c 0 = submitted
      && Cluster.decided_values c 1 = submitted)

(* Agreement property under randomized seeds, loss, and a mid-run crash. *)
let prop_agreement_under_faults =
  QCheck.Test.make ~name:"prefix agreement under loss and one crash" ~count:25
    QCheck.(pair small_int (float_range 0.0 0.15))
    (fun (seed, drop) ->
      let c = Cluster.create ~seed:(seed + 1) ~drop 5 in
      (* Submit commands periodically from varying replicas. *)
      for i = 0 to 29 do
        ignore
          (Engine.schedule c.Cluster.engine
             ~delay:(0.5 +. (float_of_int i *. 0.05))
             (fun () ->
               Replica.submit c.Cluster.replicas.(i mod 5)
                 (Printf.sprintf "p%02d" i)))
      done;
      (* Crash one replica mid-run. *)
      ignore
        (Engine.schedule c.Cluster.engine ~delay:1.2 (fun () ->
             Network.crash c.Cluster.net (seed mod 5)));
      Cluster.run c ~until:30.0;
      (* Every pair of replicas must agree on the common decided prefix. *)
      let decided = List.init 5 (fun i -> Cluster.decided_values c i) in
      let rec common_prefix a b =
        match (a, b) with
        | x :: xs, y :: ys -> x = y && common_prefix xs ys
        | _, [] | [], _ -> true
      in
      List.for_all
        (fun a -> List.for_all (fun b -> common_prefix a b) decided)
        decided)

(* --- one phase-2 path: a run of one is a single-slot message --- *)

(* A fresh follower (member 1 of {0,1,2}; member 0 owns ballot 0) whose
   sends are captured as encoded bytes, oldest first.  The engine never
   runs, so only the handed-in messages drive it. *)
let lone_follower () =
  let engine = Engine.create ~seed:5 () in
  let sent = ref [] in
  let r =
    Replica.create ~engine ~params:Params.default
      ~config:(Config.make ~instance_id:0 ~members:[ 0; 1; 2 ])
      ~me:1
      ~send:(fun ~dst msg -> sent := (dst, Msg.encode msg) :: !sent)
      ~on_decide:(fun _ _ -> ())
      ()
  in
  (r, fun () -> List.rev !sent)

let test_run_of_one_is_single_slot () =
  let ballot = { Ballot.round = 0; node = 0 } in
  let kind = Log.Value "v" in
  let via_run, sent_run = lone_follower () in
  let via_slot, sent_slot = lone_follower () in
  Replica.handle via_run ~src:0
    (Msg.Accept_multi { ballot; from_index = 0; kinds = [ kind ]; commit_index = 0 });
  Replica.handle via_slot ~src:0
    (Msg.Accept { ballot; index = 0; kind; commit_index = 0 });
  Alcotest.(check string) "same follower state"
    (Replica.fingerprint via_slot) (Replica.fingerprint via_run);
  let accepted = [ (0, Msg.encode (Msg.Accepted { ballot; index = 0 })) ] in
  Alcotest.(check (list (pair int string))) "single-slot reply" accepted
    (sent_slot ());
  Alcotest.(check (list (pair int string))) "run of one answered alike"
    accepted (sent_run ())

(* A run delivered as one Accept_multi, or as its slots one Accept at a
   time in order (each carrying the watermark the leader would have had
   then), leaves the follower in the same state. *)
let prop_run_equals_its_slots =
  QCheck.Test.make ~name:"a run and its slots leave the same follower"
    ~count:50
    QCheck.(
      triple (int_range 0 3) small_nat
        (list_of_size (Gen.int_range 1 6) (option small_printable_string)))
    (fun (round, c, values) ->
      let ballot = { Ballot.round; node = 2 } in
      let kinds =
        List.map
          (function Some v -> Log.Value v | None -> Log.Noop)
          values
      in
      let commit = c mod List.length kinds in
      let via_run, _ = lone_follower () in
      let via_slots, _ = lone_follower () in
      Replica.handle via_run ~src:2
        (Msg.Accept_multi { ballot; from_index = 0; kinds; commit_index = commit });
      List.iteri
        (fun index kind ->
          Replica.handle via_slots ~src:2
            (Msg.Accept
               { ballot; index; kind; commit_index = min commit index }))
        kinds;
      String.equal (Replica.fingerprint via_run) (Replica.fingerprint via_slots))

(* --- resend only what has waited a whole interval --- *)

(* The slots an Accept carries. *)
let accept_slots = function
  | Msg.Accept { index; _ } -> [ index ]
  | Msg.Accept_multi { from_index; kinds; _ } ->
    List.mapi (fun k _ -> from_index + k) kinds
  | _ -> []

let resent reg node =
  !(Rsmr_obs.Registry.scope_counter
      (Rsmr_obs.Registry.scope ~node ~epoch:0 reg)
      "resent")

(* Member 0 leads from time 0, so its resend ticks fall on every multiple
   of [resend_interval] (50 ms).  A slot proposed at 60 ms whose Accepts
   are all lost is still unacknowledged at the 100 ms tick, but it has
   waited only 40 ms there: it is re-sent at 150 ms, and then commits. *)
let test_resend_waits_one_interval () =
  let reg = Rsmr_obs.Registry.create () in
  let slot_sends = ref 0 in
  let tap ~src:_ ~dst:_ msg =
    slot_sends := !slot_sends + List.length (accept_slots msg)
  in
  let c = Cluster.create ~params:Params.unbatched ~obs:reg ~tap 3 in
  Cluster.run c ~until:0.06;
  List.iter
    (fun dst -> Network.set_link_fault c.Cluster.net ~src:0 ~dst ~drop:1.0)
    [ 1; 2 ];
  Replica.submit c.Cluster.replicas.(0) "x";
  Network.clear_link_faults c.Cluster.net;
  Alcotest.(check int) "proposed once to each follower" 2 !slot_sends;
  Cluster.run c ~until:0.12;
  Alcotest.(check int) "not re-sent at the next tick" 2 !slot_sends;
  Alcotest.(check (list string)) "not yet decided" []
    (Cluster.decided_values c 0);
  Cluster.run c ~until:0.3;
  Alcotest.(check int) "re-sent once, at the tick after" 4 !slot_sends;
  Alcotest.(check int) "resent cell" 1 (resent reg 0);
  for i = 0 to 2 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d decided" i)
      [ "x" ] (Cluster.decided_values c i)
  done

(* On a lossless link whose round trip is far below [resend_interval],
   every slot is acknowledged before it has waited a whole interval, so
   the leader never sends any slot to any follower twice, whatever the
   submission timing. *)
let prop_lossless_sends_each_slot_once =
  QCheck.Test.make ~name:"lossless: no slot is sent twice" ~count:20
    QCheck.(pair small_nat (list_of_size (Gen.int_range 20 120) (int_range 1 40)))
    (fun (seed, gaps) ->
      let reg = Rsmr_obs.Registry.create () in
      let seen = Hashtbl.create 256 in
      let twice = ref false in
      let tap ~src:_ ~dst msg =
        List.iter
          (fun slot ->
            if Hashtbl.mem seen (dst, slot) then twice := true
            else Hashtbl.add seen (dst, slot) ())
          (accept_slots msg)
      in
      let c = Cluster.create ~seed:(seed + 1) ~obs:reg ~tap 3 in
      (* Gaps are in tenths of a millisecond. *)
      let at = ref 0.0 in
      List.iteri
        (fun k gap ->
          at := !at +. (float_of_int gap *. 1e-4);
          ignore
            (Engine.schedule c.Cluster.engine ~delay:!at (fun () ->
                 Replica.submit c.Cluster.replicas.(0) (Printf.sprintf "q%d" k))))
        gaps;
      Cluster.run c ~until:(!at +. 1.0);
      (not !twice)
      && resent reg 0 = 0
      && List.for_all
           (fun i -> List.length (Cluster.decided_values c i) = List.length gaps)
           [ 0; 1; 2 ])

(* --- the flat log against its slot-record model --- *)

type log_op =
  | Set_at of int * int * string option (* index, round, value *)
  | Mark of int
  | Set_committed of int * string option

let kind_of = function Some v -> Log.Value v | None -> Log.Noop

let log_op_gen =
  let open QCheck.Gen in
  (* Indices 0..300 cross four chunk boundaries; [value] is often None,
     so no-ops are common. *)
  let index = int_range 0 300 and value = opt (string_size (int_range 0 3)) in
  frequency
    [
      (5, map3 (fun i r v -> Set_at (i, r, v)) index (int_range 0 4) value);
      (3, map (fun i -> Mark i) index);
      (2, map2 (fun i v -> Set_committed (i, v)) index value);
    ]

let print_log_op = function
  | Set_at (i, r, v) ->
    Printf.sprintf "set_at %d r%d %s" i r (Option.value v ~default:"noop")
  | Mark i -> Printf.sprintf "mark %d" i
  | Set_committed (i, v) ->
    Printf.sprintf "set_committed %d %s" i (Option.value v ~default:"noop")

let apply_log_op log model = function
  | Set_at (i, round, v) ->
    let ballot = { Ballot.round; node = round mod 3 } in
    Log.set_at log i ~ballot (kind_of v);
    Log_model.set model i { Log.ballot; kind = kind_of v }
  | Mark i ->
    Log.mark_committed log i;
    Log_model.mark_committed model i
  | Set_committed (i, v) ->
    Log.set_committed log i (kind_of v);
    Log_model.set_committed model i (kind_of v)

(* Every accessor of the flat log agrees with the model at every slot
   (one past the end included) and over several windows. *)
let log_agrees log model =
  let n = Log_model.length model in
  let slot_agrees i =
    let e = Log_model.get model i in
    Log.get log i = e
    && Log.is_populated log i = (e <> None)
    && Log.is_committed log i = Log_model.is_committed model i
    &&
    match e with
    | Some { Log.ballot; kind } ->
      Ballot.equal (Log.ballot_at log i) ballot && Log.kind_at log i = kind
    | None -> true
  in
  let windows = [ 0; 1; 63; 64; 65; 150; Log_model.committed_prefix model ] in
  Log.length log = n
  && Log.committed_prefix log = Log_model.committed_prefix model
  && List.for_all slot_agrees (List.init (n + 2) (fun i -> i - 1))
  && List.for_all
       (fun lo ->
         Log.entries_from log lo = Log_model.entries_from model lo
         && Log.committed_values log ~lo ~hi:(lo + 70)
            = Log_model.committed_values model ~lo ~hi:(lo + 70))
       windows

let prop_log_matches_model =
  QCheck.Test.make ~name:"flat log matches the slot model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_log_op ops))
       QCheck.Gen.(list_size (int_range 0 120) log_op_gen))
    (fun ops ->
      let log = Log.create () and model = Log_model.create () in
      List.for_all
        (fun op ->
          apply_log_op log model op;
          Log.length log = Log_model.length model
          && Log.committed_prefix log = Log_model.committed_prefix model)
        ops
      && log_agrees log model)

(* Writing and committing a slot of an allocated chunk allocates nothing:
   a decided slot is two array cells and a flag byte. *)
let test_log_set_allocates_nothing () =
  let log = Log.create () in
  let ballot = { Ballot.round = 1; node = 0 } and kind = Log.Value "v" in
  Log.set_at log 0 ~ballot kind;
  let before = Gc.minor_words () in
  for i = 0 to 63 do
    Log.set_at log i ~ballot kind;
    Log.mark_committed log i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all committed" 64 (Log.committed_prefix log);
  Alcotest.(check (float 0.)) "words for 64 set_at + mark_committed" 0. words

(* --- only members take part; anyone may submit --- *)

let ballot0 = { Ballot.round = 0; node = 0 }

(* Member 0 of {0,1,2}, leading at ballot 0 from creation; the engine
   never runs. *)
let lone_leader () =
  let engine = Engine.create ~seed:5 () in
  Replica.create ~engine ~params:Params.default
    ~config:(Config.make ~instance_id:0 ~members:[ 0; 1; 2 ])
    ~me:0
    ~send:(fun ~dst:_ _ -> ())
    ~on_decide:(fun _ _ -> ())
    ()

let test_non_member_accepted () =
  let r = lone_leader () in
  Replica.submit_many r [ "x" ];
  Replica.handle r ~src:7 (Msg.Accepted { ballot = ballot0; index = 0 });
  Alcotest.(check int) "leader + non-member is no quorum" 0
    (Replica.commit_index r);
  Replica.handle r ~src:1 (Msg.Accepted { ballot = ballot0; index = 0 });
  Alcotest.(check int) "leader + member is" 1 (Replica.commit_index r)

let test_non_member_promise () =
  let r, _ = lone_follower () in
  Replica.kick_election r;
  let ballot = { Ballot.round = 1; node = 1 } in
  let promise =
    Msg.Promise { ballot; from_index = 0; entries = []; commit_index = 0 }
  in
  Replica.handle r ~src:7 promise;
  Alcotest.(check bool) "candidate + non-member elects nobody" false
    (Replica.is_leader r);
  Replica.handle r ~src:2 promise;
  Alcotest.(check bool) "candidate + member elects" true (Replica.is_leader r)

(* A non-member's Accept and Heartbeat at a ballot it owns: a follower
   neither accepts the value nor decides it. *)
let test_non_member_proposal () =
  let engine = Engine.create ~seed:5 () in
  let decided = ref [] in
  let r =
    Replica.create ~engine ~params:Params.default
      ~config:(Config.make ~instance_id:0 ~members:[ 0; 1; 2 ])
      ~me:1
      ~send:(fun ~dst:_ _ -> ())
      ~on_decide:(fun i v -> decided := (i, v) :: !decided)
      ()
  in
  let ballot = { Ballot.round = 5; node = 7 } in
  Replica.handle r ~src:7
    (Msg.Accept
       { ballot; index = 0; kind = Log.Value "forged"; commit_index = 0 });
  Replica.handle r ~src:7 (Msg.Heartbeat { ballot; commit_index = 1 });
  Alcotest.(check (list (pair int string))) "nothing decided" [] !decided;
  (* A non-member's submission is forwarded to the leader all the same. *)
  let forwarded = ref [] in
  let engine = Engine.create ~seed:5 () in
  let f =
    Replica.create ~engine ~params:Params.default
      ~config:(Config.make ~instance_id:0 ~members:[ 0; 1; 2 ])
      ~me:1
      ~send:(fun ~dst msg -> forwarded := (dst, Msg.tag msg) :: !forwarded)
      ~on_decide:(fun _ _ -> ())
      ()
  in
  Replica.handle f ~src:0
    (Msg.Heartbeat { ballot = ballot0; commit_index = 0 });
  Replica.handle f ~src:7 (Msg.Submit { value = "residual" });
  Alcotest.(check (list (pair int string))) "submission forwarded"
    [ (0, "submit") ] !forwarded

(* The same rules in the VR block: member [me] of {0,1,2} (member 0 is
   view 0's primary, member 1 view 1's), its sends' tags captured oldest
   first; the engine never runs. *)
let lone_vr me =
  let module Vr = Rsmr_smr.Vr in
  let engine = Engine.create ~seed:5 () in
  let sent = ref [] in
  let r =
    Vr.create ~engine ~params:Params.default
      ~config:(Config.make ~instance_id:0 ~members:[ 0; 1; 2 ])
      ~me
      ~send:(fun ~dst msg -> sent := (dst, Vr.Msg.tag msg) :: !sent)
      ~on_decide:(fun _ _ -> ())
      ()
  in
  (r, fun () -> List.rev !sent)

let test_vr_non_member_prepare_ok () =
  let module Vr = Rsmr_smr.Vr in
  let r, _ = lone_vr 0 in
  Vr.submit_many r [ "x" ];
  Vr.handle r ~src:7 (Vr.Msg.Prepare_ok { view = 0; op = 0 });
  Alcotest.(check int) "primary + non-member is no quorum" 0
    (Vr.commit_index r);
  Vr.handle r ~src:1 (Vr.Msg.Prepare_ok { view = 0; op = 0 });
  Alcotest.(check int) "primary + member is" 1 (Vr.commit_index r)

let test_vr_non_member_view_change () =
  let module Vr = Rsmr_smr.Vr in
  (* Start_view_change: a backup joins view 1 on a non-member's vote but
     does not count it, so it sends view 1's primary no Do_view_change. *)
  let r, sent = lone_vr 2 in
  Vr.handle r ~src:7 (Vr.Msg.Start_view_change { view = 1 });
  Alcotest.(check bool) "no Do_view_change" false
    (List.mem (1, "do_view_change") (sent ()));
  (* Do_view_change: view 1's primary holds its own and takes a
     non-member's for nothing. *)
  let p, _ = lone_vr 1 in
  let dvc =
    Vr.Msg.Do_view_change { view = 1; log = []; last_normal = 0; commit = 0 }
  in
  Vr.handle p ~src:2 (Vr.Msg.Start_view_change { view = 1 });
  Vr.handle p ~src:7 dvc;
  Alcotest.(check bool) "own + non-member's starts no view" false
    (Vr.is_leader p);
  Vr.handle p ~src:2 dvc;
  Alcotest.(check bool) "own + member's does" true (Vr.is_leader p)

let test_vr_non_member_start_view () =
  let module Vr = Rsmr_smr.Vr in
  let engine = Engine.create ~seed:5 () in
  let decided = ref [] in
  let r =
    Vr.create ~engine ~params:Params.default
      ~config:(Config.make ~instance_id:0 ~members:[ 0; 1; 2 ])
      ~me:1
      ~send:(fun ~dst:_ _ -> ())
      ~on_decide:(fun i v -> decided := (i, v) :: !decided)
      ()
  in
  Vr.handle r ~src:7
    (Vr.Msg.Start_view { view = 3; log = [ "forged" ]; commit = 1 });
  Alcotest.(check (list (pair int string))) "nothing decided" [] !decided;
  Alcotest.(check int) "still view 0" 0 (Vr.view r)

(* A Learn response that reaches a replica after it took over commits a
   slot whose ack entry the new leader holds.  The response clears the
   entry, so the fingerprint lists only slot 3's open entry.  The digest
   was first recorded with the slot-record log and the per-slot ack sets,
   where the entry outlived the commit; it was re-recorded when the learn
   path began to clear it (the one change to these bytes). *)
let test_late_learn_fingerprint () =
  let r, _ = lone_follower () in
  Replica.handle r ~src:0
    (Msg.Accept
       { ballot = ballot0; index = 0; kind = Log.Value "a"; commit_index = 0 });
  (* Slot 0 commits from the watermark; slot 1 is missing, so r asks 0. *)
  Replica.handle r ~src:0
    (Msg.Heartbeat { ballot = ballot0; commit_index = 2 });
  Replica.kick_election r;
  let b1 = { Ballot.round = 1; node = 1 } in
  Replica.handle r ~src:2
    (Msg.Promise
       {
         ballot = b1;
         from_index = 1;
         entries = [ (1, { Log.ballot = ballot0; kind = Log.Value "b" }) ];
         commit_index = 1;
       });
  Alcotest.(check bool) "took over" true (Replica.is_leader r);
  Replica.handle r ~src:0
    (Msg.Learn_rsp { entries = [ (1, Log.Value "b") ]; commit_index = 2 });
  Replica.submit_many r [ "c" ];
  Replica.handle r ~src:2 (Msg.Accepted { ballot = b1; index = 2 });
  Replica.submit_many r [ "d" ];
  Alcotest.(check int) "commit index" 3 (Replica.commit_index r);
  Alcotest.(check string) "fingerprint digest" "b9f5563b071f28ec"
    (Rsmr_sim.Fnv.to_hex (Rsmr_sim.Fnv.hash (Replica.fingerprint r)))

(* Halting stops the replica without touching what it decided:
   [commit_index] answers as it did before the halt. *)
let test_halt_keeps_commit_index () =
  let c = Cluster.create 3 in
  List.iter (Replica.submit c.Cluster.replicas.(0)) [ "kept-a"; "kept-b" ];
  Cluster.run c ~until:1.0;
  let r = c.Cluster.replicas.(1) in
  let before = Replica.commit_index r in
  Alcotest.(check int) "both committed" 2 before;
  Replica.halt r;
  Alcotest.(check int) "commit_index unchanged" before (Replica.commit_index r);
  Alcotest.(check bool) "still halted" true (Replica.is_halted r)

let () =
  Alcotest.run "smr"
    [
      ( "units",
        [
          Alcotest.test_case "ballot order" `Quick test_ballot_order;
          Alcotest.test_case "config quorum" `Quick test_config_quorum;
          Alcotest.test_case "config round-trip" `Quick test_config_roundtrip;
          Alcotest.test_case "log basics" `Quick test_log_basics;
          Alcotest.test_case "msg roundtrip" `Quick test_msg_roundtrip;
          Alcotest.test_case "msg sizes" `Quick test_msg_size_positive;
        ] );
      ( "log",
        [
          QCheck_alcotest.to_alcotest prop_log_matches_model;
          Alcotest.test_case "set_at allocates nothing" `Quick
            test_log_set_allocates_nothing;
          Alcotest.test_case "late learn fingerprint" `Quick
            test_late_learn_fingerprint;
        ] );
      ( "members",
        [
          Alcotest.test_case "non-member accepted" `Quick
            test_non_member_accepted;
          Alcotest.test_case "non-member promise" `Quick
            test_non_member_promise;
          Alcotest.test_case "non-member proposal" `Quick
            test_non_member_proposal;
          Alcotest.test_case "vr non-member prepare_ok" `Quick
            test_vr_non_member_prepare_ok;
          Alcotest.test_case "vr non-member view change" `Quick
            test_vr_non_member_view_change;
          Alcotest.test_case "vr non-member start_view" `Quick
            test_vr_non_member_start_view;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "election" `Quick test_election;
          Alcotest.test_case "single command" `Quick test_single_command;
          Alcotest.test_case "many commands agree" `Quick
            test_many_commands_agree;
          Alcotest.test_case "submission order" `Quick
            test_commands_in_submission_order;
          Alcotest.test_case "leader crash failover" `Quick
            test_leader_crash_failover;
          Alcotest.test_case "commit under loss" `Quick
            test_commit_under_message_loss;
          Alcotest.test_case "minority partition" `Quick
            test_minority_partition_blocks_commit;
          Alcotest.test_case "single-member cluster" `Quick
            test_single_member_cluster;
          Alcotest.test_case "halt" `Quick test_halt_stops_participation;
          Alcotest.test_case "follower forwards" `Quick
            test_follower_submit_forwards;
          Alcotest.test_case "duplicated messages" `Quick
            test_duplicated_messages_agree;
          Alcotest.test_case "laggard catches up via learn" `Quick
            test_lagging_follower_catches_up_via_learn;
          Alcotest.test_case "submit during election" `Quick
            test_submit_during_election_eventually_decides;
          Alcotest.test_case "batching reduces messages" `Quick
            test_batching_reduces_messages;
          Alcotest.test_case "batching preserves order" `Quick
            test_batching_preserves_order;
          QCheck_alcotest.to_alcotest prop_batch_split_merge_fifo;
          QCheck_alcotest.to_alcotest prop_agreement_under_faults;
        ] );
      ( "one path",
        [
          Alcotest.test_case "run of one is single-slot" `Quick
            test_run_of_one_is_single_slot;
          QCheck_alcotest.to_alcotest prop_run_equals_its_slots;
        ] );
      ( "resend",
        [
          Alcotest.test_case "resend waits one interval" `Quick
            test_resend_waits_one_interval;
          QCheck_alcotest.to_alcotest prop_lossless_sends_each_slot_once;
          Alcotest.test_case "halt keeps commit_index" `Quick
            test_halt_keeps_commit_index;
        ] );
    ]
