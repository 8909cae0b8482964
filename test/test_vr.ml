(* Tests for the static Viewstamped Replication building block, standalone
   and — the point of the paper — composed into the reconfigurable service
   by the SAME composition layer that drives Multi-Paxos. *)

module Engine = Rsmr_sim.Engine
module Network = Rsmr_net.Network
module Params = Rsmr_smr.Params
module Config = Rsmr_smr.Config
module Vr = Rsmr_smr.Vr
module Kv = Rsmr_app.Kv
module KvOnVr = Rsmr_core.Service.Make_on (Rsmr_smr.Vr) (Rsmr_app.Kv)

let test_msg_roundtrip () =
  let cases =
    [
      Vr.Msg.Request { value = "v" };
      Vr.Msg.Prepare { view = 2; op = 7; value = "x"; commit = 6 };
      Vr.Msg.Prepare_ok { view = 2; op = 7 };
      Vr.Msg.Commit { view = 2; commit = 7 };
      Vr.Msg.Start_view_change { view = 3 };
      Vr.Msg.Do_view_change
        { view = 3; log = [ "a"; "b" ]; last_normal = 2; commit = 1 };
      Vr.Msg.Start_view { view = 3; log = [ "a"; "b" ]; commit = 2 };
      Vr.Msg.Get_state { view = 3; from = 5 };
      Vr.Msg.New_state { view = 3; from = 5; ops = [ "c" ]; commit = 6 };
    ]
  in
  List.iter
    (fun m ->
      if Vr.Msg.decode (Vr.Msg.encode m) <> m then
        Alcotest.failf "vr msg roundtrip failed (%s)" (Vr.Msg.tag m))
    cases

(* Membership changes go through the cluster's control surface. *)
let reconfigure (c : Rsmr_iface.Cluster.t) =
  Rsmr_iface.Overlay.reconfigure c.Rsmr_iface.Cluster.control

(* --- standalone cluster harness --- *)

module Cluster = struct

  type t = {
    engine : Engine.t;
    net : Vr.Msg.t Network.t;
    replicas : Vr.t array;
    decided : (int * string) list ref array;
  }

  (* [tap] sees every message a replica sends, before the network does. *)
  let create ?(seed = 1) ?(drop = 0.0) ?(params = Params.default) ?obs
      ?(tap = fun ~src:_ ~dst:_ _ -> ()) n =
    let engine = Engine.create ~seed () in
    let net = Network.create engine ~drop ~sizer:Vr.Msg.size () in
    let cfg = Config.make ~instance_id:0 ~members:(List.init n Fun.id) in
    let decided = Array.init n (fun _ -> ref []) in
    let replicas =
      Array.init n (fun i ->
          Vr.create ~engine ~params ~config:cfg ~me:i
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
            Vr.handle r ~src:env.Network.src env.Network.payload))
      replicas;
    { engine; net; replicas; decided }

  let decided_values t i = List.rev_map snd !(t.decided.(i))

  let primary t =
    Array.to_list t.replicas
    |> List.mapi (fun i r -> (i, r))
    |> List.find_opt (fun (i, r) ->
           Vr.is_leader r && not (Network.is_crashed t.net i))
end

let test_primary_is_immediate () =
  (* View 0's primary serves without any election. *)
  let c = Cluster.create 3 in
  Vr.submit c.Cluster.replicas.(0) "first";
  Engine.run ~until:1.0 c.Cluster.engine;
  Alcotest.(check (list string)) "decided at once" [ "first" ]
    (Cluster.decided_values c 0);
  Alcotest.(check bool) "node 0 is primary of view 0" true
    (Vr.is_leader c.Cluster.replicas.(0))

let test_replication_and_agreement () =
  let c = Cluster.create 5 in
  for i = 1 to 40 do
    Vr.submit c.Cluster.replicas.(0) (Printf.sprintf "op%02d" i)
  done;
  Engine.run ~until:5.0 c.Cluster.engine;
  let d0 = Cluster.decided_values c 0 in
  Alcotest.(check int) "all decided" 40 (List.length d0);
  for i = 1 to 4 do
    Alcotest.(check (list string)) "replicas agree" d0 (Cluster.decided_values c i)
  done

let test_backup_forwards () =
  let c = Cluster.create 3 in
  Vr.submit c.Cluster.replicas.(2) "via-backup";
  Engine.run ~until:2.0 c.Cluster.engine;
  Alcotest.(check (list string)) "forwarded and decided" [ "via-backup" ]
    (Cluster.decided_values c 2)

let test_view_change_on_primary_crash () =
  let c = Cluster.create 3 in
  Vr.submit c.Cluster.replicas.(0) "before";
  Engine.run ~until:1.0 c.Cluster.engine;
  Network.crash c.Cluster.net 0;
  Engine.run ~until:4.0 c.Cluster.engine;
  (match Cluster.primary c with
   | Some (p, r) ->
     Alcotest.(check bool) "new primary is a backup" true (p <> 0);
     Alcotest.(check bool) "view advanced" true (Vr.view r > 0);
     Vr.submit r "after"
   | None -> Alcotest.fail "no primary after view change");
  Engine.run ~until:8.0 c.Cluster.engine;
  Alcotest.(check (list string)) "history preserved" [ "before"; "after" ]
    (Cluster.decided_values c 1)

let test_commit_under_loss () =
  let c = Cluster.create ~seed:5 ~drop:0.08 3 in
  for i = 1 to 15 do
    Vr.submit c.Cluster.replicas.(0) (Printf.sprintf "lossy%02d" i)
  done;
  Engine.run ~until:30.0 c.Cluster.engine;
  (* The submitting node is the primary; entries may be lost on first send
     but the resend timer recovers them. *)
  let live =
    List.filter (fun i -> not (Network.is_crashed c.Cluster.net i)) [ 0; 1; 2 ]
  in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d converged" i)
        true
        (List.length (Cluster.decided_values c i) >= 15))
    live;
  (* Prefix agreement. *)
  let rec common_prefix a b =
    match (a, b) with
    | x :: xs, y :: ys -> x = y && common_prefix xs ys
    | _, [] | [], _ -> true
  in
  Alcotest.(check bool) "prefix agreement" true
    (common_prefix (Cluster.decided_values c 0) (Cluster.decided_values c 1))

let prop_vr_agreement =
  QCheck.Test.make ~name:"vr prefix agreement under loss + crash" ~count:15
    QCheck.(pair small_int (float_range 0.0 0.1))
    (fun (seed, drop) ->
      let c = Cluster.create ~seed:(seed + 1) ~drop 5 in
      for i = 0 to 19 do
        ignore
          (Engine.schedule c.Cluster.engine
             ~delay:(0.2 +. (float_of_int i *. 0.05))
             (fun () ->
               Vr.submit c.Cluster.replicas.(i mod 5) (Printf.sprintf "p%02d" i)))
      done;
      ignore
        (Engine.schedule c.Cluster.engine ~delay:0.7 (fun () ->
             Network.crash c.Cluster.net (seed mod 5)));
      Engine.run ~until:30.0 c.Cluster.engine;
      let decided = List.init 5 (Cluster.decided_values c) in
      let rec common_prefix a b =
        match (a, b) with
        | x :: xs, y :: ys -> x = y && common_prefix xs ys
        | _, [] | [], _ -> true
      in
      List.for_all
        (fun a -> List.for_all (fun b -> common_prefix a b) decided)
        decided)

(* --- the reconfigurable service over the VR block --- *)

type harness = {
  engine : Engine.t;
  svc : KvOnVr.t;
  cluster : Rsmr_iface.Cluster.t;
  replies : (int * int, string) Hashtbl.t;
}

let vr_harness ?(seed = 1) ~members ~universe () =
  let engine = Engine.create ~seed () in
  let svc = KvOnVr.create ~engine ~members ~universe () in
  let cluster = KvOnVr.cluster svc in
  let replies = Hashtbl.create 32 in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client ~seq ~rsp ->
      Hashtbl.replace replies (client, seq) rsp);
  cluster.Rsmr_iface.Cluster.add_client 100;
  { engine; svc; cluster; replies }

let run_until h ~deadline pred =
  let rec loop horizon =
    Engine.run ~until:horizon h.engine;
    if pred () then ()
    else if horizon >= deadline then
      Alcotest.failf "condition not reached by t=%g" deadline
    else loop (horizon +. 0.05)
  in
  loop (Engine.now h.engine +. 0.05)

let submit h ~seq cmd =
  h.cluster.Rsmr_iface.Cluster.submit ~client:100 ~seq
    ~cmd:(Kv.encode_command cmd)

let reply_of h ~seq =
  Option.map Kv.decode_response (Hashtbl.find_opt h.replies (100, seq))

let test_service_over_vr_basic () =
  let h = vr_harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2 ] () in
  submit h ~seq:1 (Kv.Put ("block", "agnostic"));
  run_until h ~deadline:5.0 (fun () -> Hashtbl.mem h.replies (100, 1));
  submit h ~seq:2 (Kv.Get "block");
  run_until h ~deadline:10.0 (fun () -> Hashtbl.mem h.replies (100, 2));
  Alcotest.(check bool) "get sees put through VR" true
    (reply_of h ~seq:2 = Some (Kv.Value (Some "agnostic")))

let test_service_over_vr_reconfigures () =
  (* The headline: the SAME composition layer reconfigures a service built
     from a completely different black box. *)
  let h = vr_harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ] () in
  for i = 1 to 8 do
    submit h ~seq:i (Kv.Put (Printf.sprintf "k%d" i, string_of_int i))
  done;
  run_until h ~deadline:10.0 (fun () ->
      List.for_all (fun i -> Hashtbl.mem h.replies (100, i))
        (List.init 8 (fun i -> i + 1)));
  reconfigure h.cluster [ 3; 4; 5 ];
  run_until h ~deadline:60.0 (fun () -> KvOnVr.current_epoch h.svc = 1);
  submit h ~seq:9 (Kv.Get "k5");
  run_until h ~deadline:90.0 (fun () -> Hashtbl.mem h.replies (100, 9));
  Alcotest.(check bool) "state crossed the VR-block transfer" true
    (reply_of h ~seq:9 = Some (Kv.Value (Some "5")));
  (* New members hold the data. *)
  run_until h ~deadline:120.0 (fun () ->
      match KvOnVr.app_state h.svc 4 with
      | Some st -> Kv.cardinal st = 8
      | None -> false)

let test_service_over_vr_exactly_once () =
  let h = vr_harness ~seed:3 ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ] () in
  submit h ~seq:1 (Kv.Append ("acc", "x"));
  run_until h ~deadline:5.0 (fun () -> Hashtbl.mem h.replies (100, 1));
  (* Retry the same sequence around a reconfiguration. *)
  reconfigure h.cluster [ 2; 3; 4 ];
  submit h ~seq:1 (Kv.Append ("acc", "x"));
  run_until h ~deadline:60.0 (fun () -> KvOnVr.current_epoch h.svc = 1);
  submit h ~seq:2 (Kv.Get "acc");
  run_until h ~deadline:90.0 (fun () -> Hashtbl.mem h.replies (100, 2));
  Alcotest.(check bool) "applied exactly once across blocks+reconfig" true
    (reply_of h ~seq:2 = Some (Kv.Value (Some "x")))

(* --- one replication path: a run of one is a single-op message --- *)

(* A fresh backup (member 1 of {0,1,2}; member 0 is view 0's primary)
   whose sends are captured as encoded bytes, oldest first.  The engine
   never runs, so only the handed-in messages drive it. *)
let lone_backup () =
  let engine = Engine.create ~seed:5 () in
  let sent = ref [] in
  let r =
    Vr.create ~engine ~params:Params.default
      ~config:(Config.make ~instance_id:0 ~members:[ 0; 1; 2 ])
      ~me:1
      ~send:(fun ~dst msg -> sent := (dst, Vr.Msg.encode msg) :: !sent)
      ~on_decide:(fun _ _ -> ())
      ()
  in
  (r, fun () -> List.rev !sent)

let test_run_of_one_is_single_op () =
  let via_run, sent_run = lone_backup () in
  let via_op, sent_op = lone_backup () in
  Vr.handle via_run ~src:0
    (Vr.Msg.Prepare_multi { view = 0; from_op = 0; values = [ "v" ]; commit = 0 });
  Vr.handle via_op ~src:0
    (Vr.Msg.Prepare { view = 0; op = 0; value = "v"; commit = 0 });
  Alcotest.(check string) "same backup state" (Vr.fingerprint via_op)
    (Vr.fingerprint via_run);
  let ok = [ (0, Vr.Msg.encode (Vr.Msg.Prepare_ok { view = 0; op = 0 })) ] in
  Alcotest.(check (list (pair int string))) "single-op reply" ok (sent_op ());
  Alcotest.(check (list (pair int string))) "run of one answered alike" ok
    (sent_run ())

(* A run delivered as one Prepare_multi, or as its ops one Prepare at a
   time in order (each carrying the commit point the primary would have
   had then), leaves the backup in the same state. *)
let prop_run_equals_its_ops =
  QCheck.Test.make ~name:"a run and its ops leave the same backup" ~count:50
    QCheck.(
      pair small_nat
        (list_of_size (Gen.int_range 1 6) small_printable_string))
    (fun (c, values) ->
      let commit = c mod List.length values in
      let via_run, _ = lone_backup () in
      let via_ops, _ = lone_backup () in
      Vr.handle via_run ~src:0
        (Vr.Msg.Prepare_multi { view = 0; from_op = 0; values; commit });
      List.iteri
        (fun op value ->
          Vr.handle via_ops ~src:0
            (Vr.Msg.Prepare { view = 0; op; value; commit = min commit op }))
        values;
      String.equal (Vr.fingerprint via_run) (Vr.fingerprint via_ops))

(* --- resend only what has waited a whole interval --- *)

(* The ops a Prepare carries. *)
let prepare_ops = function
  | Vr.Msg.Prepare { op; _ } -> [ op ]
  | Vr.Msg.Prepare_multi { from_op; values; _ } ->
    List.mapi (fun k _ -> from_op + k) values
  | _ -> []

let resent reg node =
  !(Rsmr_obs.Registry.scope_counter
      (Rsmr_obs.Registry.scope ~node ~epoch:0 reg)
      "resent")

(* View 0's primary (member 0) starts its resend ticks at time 0, so they
   fall on every multiple of [resend_interval] (50 ms).  An op prepared at
   60 ms whose Prepares are all lost is still unacknowledged at the 100 ms
   tick, but it has waited only 40 ms there: it is re-sent at 150 ms, and
   then commits. *)
let test_resend_waits_one_interval () =
  let reg = Rsmr_obs.Registry.create () in
  let op_sends = ref 0 in
  let tap ~src:_ ~dst:_ msg =
    op_sends := !op_sends + List.length (prepare_ops msg)
  in
  let c = Cluster.create ~params:Params.unbatched ~obs:reg ~tap 3 in
  Engine.run ~until:0.06 c.Cluster.engine;
  List.iter
    (fun dst -> Network.set_link_fault c.Cluster.net ~src:0 ~dst ~drop:1.0)
    [ 1; 2 ];
  Vr.submit c.Cluster.replicas.(0) "x";
  Network.clear_link_faults c.Cluster.net;
  Alcotest.(check int) "prepared once to each backup" 2 !op_sends;
  Engine.run ~until:0.12 c.Cluster.engine;
  Alcotest.(check int) "not re-sent at the next tick" 2 !op_sends;
  Alcotest.(check (list string)) "not yet decided" []
    (Cluster.decided_values c 0);
  Engine.run ~until:0.3 c.Cluster.engine;
  Alcotest.(check int) "re-sent once, at the tick after" 4 !op_sends;
  Alcotest.(check int) "resent cell" 1 (resent reg 0);
  for i = 0 to 2 do
    Alcotest.(check (list string))
      (Printf.sprintf "replica %d decided" i)
      [ "x" ] (Cluster.decided_values c i)
  done

(* On a lossless link whose round trip is far below [resend_interval],
   every op is acknowledged before it has waited a whole interval, so the
   primary never sends any op to any backup twice, whatever the
   submission timing. *)
let prop_lossless_sends_each_op_once =
  QCheck.Test.make ~name:"lossless: no op is sent twice" ~count:20
    QCheck.(pair small_nat (list_of_size (Gen.int_range 20 120) (int_range 1 40)))
    (fun (seed, gaps) ->
      let reg = Rsmr_obs.Registry.create () in
      let seen = Hashtbl.create 256 in
      let twice = ref false in
      let tap ~src:_ ~dst msg =
        List.iter
          (fun op ->
            if Hashtbl.mem seen (dst, op) then twice := true
            else Hashtbl.add seen (dst, op) ())
          (prepare_ops msg)
      in
      let c = Cluster.create ~seed:(seed + 1) ~obs:reg ~tap 3 in
      (* Gaps are in tenths of a millisecond. *)
      let at = ref 0.0 in
      List.iteri
        (fun k gap ->
          at := !at +. (float_of_int gap *. 1e-4);
          ignore
            (Engine.schedule c.Cluster.engine ~delay:!at (fun () ->
                 Vr.submit c.Cluster.replicas.(0) (Printf.sprintf "q%d" k))))
        gaps;
      Engine.run ~until:(!at +. 1.0) c.Cluster.engine;
      (not !twice)
      && resent reg 0 = 0
      && List.for_all
           (fun i -> List.length (Cluster.decided_values c i) = List.length gaps)
           [ 0; 1; 2 ])

(* Halting stops the replica without touching what it decided:
   [commit_index] answers as it did before the halt. *)
let test_halt_keeps_commit_index () =
  let c = Cluster.create 3 in
  List.iter (Vr.submit c.Cluster.replicas.(0)) [ "kept-a"; "kept-b" ];
  Engine.run ~until:1.0 c.Cluster.engine;
  let r = c.Cluster.replicas.(1) in
  let before = Vr.commit_index r in
  Alcotest.(check int) "both committed" 2 before;
  Vr.halt r;
  Alcotest.(check int) "commit_index unchanged" before (Vr.commit_index r);
  Alcotest.(check bool) "still halted" true (Vr.is_halted r)

let () =
  Alcotest.run "vr"
    [
      ("msg", [ Alcotest.test_case "roundtrip" `Quick test_msg_roundtrip ]);
      ( "protocol",
        [
          Alcotest.test_case "primary immediate" `Quick test_primary_is_immediate;
          Alcotest.test_case "replication+agreement" `Quick
            test_replication_and_agreement;
          Alcotest.test_case "backup forwards" `Quick test_backup_forwards;
          Alcotest.test_case "view change on crash" `Quick
            test_view_change_on_primary_crash;
          Alcotest.test_case "commit under loss" `Quick test_commit_under_loss;
          QCheck_alcotest.to_alcotest prop_vr_agreement;
        ] );
      ( "one path",
        [
          Alcotest.test_case "run of one is single-op" `Quick
            test_run_of_one_is_single_op;
          QCheck_alcotest.to_alcotest prop_run_equals_its_ops;
        ] );
      ( "resend",
        [
          Alcotest.test_case "resend waits one interval" `Quick
            test_resend_waits_one_interval;
          QCheck_alcotest.to_alcotest prop_lossless_sends_each_op_once;
          Alcotest.test_case "halt keeps commit_index" `Quick
            test_halt_keeps_commit_index;
        ] );
      ( "composition",
        [
          Alcotest.test_case "service over VR: basic" `Quick
            test_service_over_vr_basic;
          Alcotest.test_case "service over VR: reconfigures" `Quick
            test_service_over_vr_reconfigures;
          Alcotest.test_case "service over VR: exactly-once" `Quick
            test_service_over_vr_exactly_once;
        ] );
    ]
