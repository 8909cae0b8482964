(* Tests for the linearizability checker, including live cross-protocol
   checks: every protocol is driven with concurrent clients across a
   reconfiguration and the recorded history must be linearizable. *)

module Engine = Rsmr_sim.Engine
module Register = Rsmr_app.Register
module History = Rsmr_checker.History
module Lin = Rsmr_checker.Linearizability.Make (Rsmr_app.Register)
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule
module Protocol = Rsmr_protocol.Protocol
module Reg_protocol = Protocol.Make (Rsmr_app.Register)

let op ~client ~cmd ~rsp ~invoked ~replied =
  {
    History.client;
    cmd = Register.encode_command cmd;
    rsp = Register.encode_response rsp;
    invoked;
    replied;
  }

let check_ops ops =
  let h = History.create () in
  List.iter (History.add h) ops;
  Lin.check h

let test_empty_history () =
  Alcotest.(check bool) "empty is linearizable" true
    (check_ops [] = Lin.Linearizable)

let test_sequential_ok () =
  let ops =
    [
      op ~client:1 ~cmd:(Register.Write 5) ~rsp:Register.Written ~invoked:0.0
        ~replied:1.0;
      op ~client:1 ~cmd:Register.Read ~rsp:(Register.Value 5) ~invoked:2.0
        ~replied:3.0;
    ]
  in
  Alcotest.(check bool) "sequential history ok" true
    (check_ops ops = Lin.Linearizable)

let test_stale_read_rejected () =
  (* Write 5 completes before the read starts, yet the read sees 0. *)
  let ops =
    [
      op ~client:1 ~cmd:(Register.Write 5) ~rsp:Register.Written ~invoked:0.0
        ~replied:1.0;
      op ~client:2 ~cmd:Register.Read ~rsp:(Register.Value 0) ~invoked:2.0
        ~replied:3.0;
    ]
  in
  Alcotest.(check bool) "stale read rejected" true
    (check_ops ops = Lin.Not_linearizable)

let test_concurrent_flexibility () =
  (* A read overlapping a write may see either value. *)
  let base w_rsp r_rsp =
    [
      op ~client:1 ~cmd:(Register.Write 7) ~rsp:w_rsp ~invoked:0.0 ~replied:2.0;
      op ~client:2 ~cmd:Register.Read ~rsp:r_rsp ~invoked:1.0 ~replied:3.0;
    ]
  in
  Alcotest.(check bool) "overlapping read sees new" true
    (check_ops (base Register.Written (Register.Value 7)) = Lin.Linearizable);
  Alcotest.(check bool) "overlapping read sees old" true
    (check_ops (base Register.Written (Register.Value 0)) = Lin.Linearizable)

let test_cas_ordering () =
  (* Two successful CAS(0 -> x) cannot both succeed. *)
  let ops =
    [
      op ~client:1 ~cmd:(Register.Cas (0, 1)) ~rsp:(Register.Cas_result true)
        ~invoked:0.0 ~replied:1.0;
      op ~client:2 ~cmd:(Register.Cas (0, 2)) ~rsp:(Register.Cas_result true)
        ~invoked:0.5 ~replied:1.5;
    ]
  in
  Alcotest.(check bool) "double CAS rejected" true
    (check_ops ops = Lin.Not_linearizable);
  (* But success + failure is fine. *)
  let ops_ok =
    [
      op ~client:1 ~cmd:(Register.Cas (0, 1)) ~rsp:(Register.Cas_result true)
        ~invoked:0.0 ~replied:1.0;
      op ~client:2 ~cmd:(Register.Cas (0, 2)) ~rsp:(Register.Cas_result false)
        ~invoked:0.5 ~replied:1.5;
    ]
  in
  Alcotest.(check bool) "cas success+failure ok" true
    (check_ops ops_ok = Lin.Linearizable)

let test_real_time_order_enforced () =
  (* Client 1 writes 1 then 2 (sequentially); a later read must not see 1. *)
  let ops =
    [
      op ~client:1 ~cmd:(Register.Write 1) ~rsp:Register.Written ~invoked:0.0
        ~replied:1.0;
      op ~client:1 ~cmd:(Register.Write 2) ~rsp:Register.Written ~invoked:2.0
        ~replied:3.0;
      op ~client:2 ~cmd:Register.Read ~rsp:(Register.Value 1) ~invoked:4.0
        ~replied:5.0;
    ]
  in
  Alcotest.(check bool) "old value after overwrite rejected" true
    (check_ops ops = Lin.Not_linearizable)

let test_budget_inconclusive () =
  (* Enough overlapping operations that one visited configuration cannot
     settle the question: a starved budget must answer Inconclusive, never
     a false verdict in either direction. *)
  let ops =
    List.concat_map
      (fun c ->
        [
          op ~client:c ~cmd:(Register.Write c) ~rsp:Register.Written
            ~invoked:0.0 ~replied:10.0;
        ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "starved budget is inconclusive" true
    (let h = History.create () in
     List.iter (History.add h) ops;
     Lin.check ~max_states:1 h = Lin.Inconclusive)

module LinCounter = Rsmr_checker.Linearizability.Make (Rsmr_app.Counter)
module Counter = Rsmr_app.Counter

let counter_op ~client ~cmd ~rsp ~invoked ~replied =
  {
    History.client;
    cmd = Counter.encode_command cmd;
    rsp = Counter.encode_response rsp;
    invoked;
    replied;
  }

let test_counter_exactly_once () =
  (* The checker is generic in the state machine: over Counter, a reply
     that could only arise from a doubly-applied increment is rejected,
     while the single-application reply is accepted. *)
  let history final_rsp =
    let h = History.create () in
    List.iter (History.add h)
      [
        counter_op ~client:1 ~cmd:(Counter.Incr 1)
          ~rsp:(Counter.Current 1) ~invoked:0.0 ~replied:1.0;
        counter_op ~client:2 ~cmd:(Counter.Incr 1) ~rsp:final_rsp
          ~invoked:2.0 ~replied:3.0;
      ];
    h
  in
  Alcotest.(check bool) "single application ok" true
    (LinCounter.check (history (Counter.Current 2)) = LinCounter.Linearizable);
  Alcotest.(check bool) "double application rejected" true
    (LinCounter.check (history (Counter.Current 3))
    = LinCounter.Not_linearizable)

let test_history_concurrency_probe () =
  let h = History.create () in
  History.add h
    (op ~client:1 ~cmd:Register.Read ~rsp:(Register.Value 0) ~invoked:0.0
       ~replied:10.0);
  History.add h
    (op ~client:2 ~cmd:Register.Read ~rsp:(Register.Value 0) ~invoked:1.0
       ~replied:2.0);
  History.add h
    (op ~client:3 ~cmd:Register.Read ~rsp:(Register.Value 0) ~invoked:1.5
       ~replied:2.5);
  Alcotest.(check int) "peak concurrency" 3 (History.concurrency h)

(* --- live protocol checks --- *)

let record_history stats_gen =
  let h = History.create () in
  let on_event (e : Driver.event) =
    History.add h
      {
        History.client = e.Driver.ev_client;
        cmd = e.Driver.ev_cmd;
        rsp = e.Driver.ev_rsp;
        invoked = e.Driver.ev_invoked;
        replied = e.Driver.ev_replied;
      }
  in
  stats_gen on_event;
  h

let register_gen engine =
  let rng = Rsmr_sim.Rng.split (Engine.rng engine) in
  fun ~client:_ ~seq:_ ->
    match Rsmr_sim.Rng.int rng 3 with
    | 0 -> Register.encode_command Register.Read
    | 1 -> Register.encode_command (Register.Write (Rsmr_sim.Rng.int rng 100))
    | _ ->
      let e = Rsmr_sim.Rng.int rng 100 in
      Register.encode_command (Register.Cas (e, Rsmr_sim.Rng.int rng 100))

let live_check proto () =
  let name = proto.Protocol.name in
  let engine = Engine.create ~seed:21 () in
  let { Reg_protocol.cluster; _ } =
    Reg_protocol.create ~engine proto ~members:[ 0; 1; 2 ]
      ~universe:[ 0; 1; 2; 3; 4; 5 ]
  in
  let gen = register_gen engine in
  let h =
    record_history (fun on_event ->
        ignore
          (Driver.run_closed ~cluster ~n_clients:4 ~first_client_id:100 ~gen
             ~on_event ~start:0.5 ~duration:6.0 ()))
  in
  (* Reconfigure twice while the load runs. *)
  Schedule.reconfigure_at cluster ~time:2.0 [ 2; 3; 4 ];
  Schedule.reconfigure_at cluster ~time:4.0 [ 4; 5; 0 ];
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool)
    (name ^ ": enough operations recorded")
    true
    (History.length h > 50);
  Alcotest.(check bool)
    (name ^ ": genuinely concurrent")
    true
    (History.concurrency h >= 2);
  match Lin.check h with
  | Lin.Linearizable -> ()
  | Lin.Not_linearizable -> Alcotest.failf "%s: history NOT linearizable" name
  | Lin.Inconclusive -> Alcotest.failf "%s: checker budget exhausted" name

let test_core_linearizable_lossy () =
  let engine = Engine.create ~seed:33 () in
  let { Reg_protocol.cluster; _ } =
    Reg_protocol.create ~engine ~drop:0.05 Protocol.core ~members:[ 0; 1; 2 ]
      ~universe:[ 0; 1; 2; 3; 4 ]
  in
  let gen = register_gen engine in
  let h =
    record_history (fun on_event ->
        ignore
          (Driver.run_closed ~cluster ~n_clients:3 ~first_client_id:100 ~gen
             ~on_event ~start:0.5 ~duration:5.0 ()))
  in
  Schedule.reconfigure_at cluster ~time:2.5 [ 2; 3; 4 ];
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "ops recorded" true (History.length h > 20);
  match Lin.check h with
  | Lin.Linearizable -> ()
  | Lin.Not_linearizable -> Alcotest.fail "lossy core history NOT linearizable"
  | Lin.Inconclusive -> Alcotest.fail "checker budget exhausted"

let () =
  Alcotest.run "checker"
    [
      ( "units",
        [
          Alcotest.test_case "empty" `Quick test_empty_history;
          Alcotest.test_case "sequential ok" `Quick test_sequential_ok;
          Alcotest.test_case "stale read rejected" `Quick
            test_stale_read_rejected;
          Alcotest.test_case "concurrent flexibility" `Quick
            test_concurrent_flexibility;
          Alcotest.test_case "cas ordering" `Quick test_cas_ordering;
          Alcotest.test_case "real-time order" `Quick
            test_real_time_order_enforced;
          Alcotest.test_case "budget inconclusive" `Quick
            test_budget_inconclusive;
          Alcotest.test_case "counter exactly-once" `Quick
            test_counter_exactly_once;
          Alcotest.test_case "concurrency probe" `Quick
            test_history_concurrency_probe;
        ] );
      ( "live",
        [
          Alcotest.test_case "core linearizable across reconfigs" `Slow
            (live_check Protocol.core);
          Alcotest.test_case "stopworld linearizable across reconfigs" `Slow
            (live_check Protocol.stopworld);
          Alcotest.test_case "raft linearizable across reconfigs" `Slow
            (live_check Protocol.raft);
          Alcotest.test_case "core-over-VR linearizable across reconfigs" `Slow
            (live_check Protocol.core_vr);
          Alcotest.test_case "core linearizable under loss" `Slow
            test_core_linearizable_lossy;
        ] );
    ]
