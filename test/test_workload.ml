(* Tests for workload generators, schedules and the load drivers. *)

module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Histogram = Rsmr_sim.Histogram
module Kv = Rsmr_app.Kv
module Keys = Rsmr_workload.Keys
module Kv_gen = Rsmr_workload.Kv_gen
module Driver = Rsmr_workload.Driver
module Schedule = Rsmr_workload.Schedule
module KvService = Rsmr_core.Service.Make (Rsmr_app.Kv)

let test_uniform_bounds () =
  let rng = Rng.create 1 in
  let k = Keys.uniform ~n:10 in
  for _ = 1 to 1000 do
    let v = Keys.sample k rng in
    if v < 0 || v >= 10 then Alcotest.fail "uniform out of range"
  done

let test_zipf_skew () =
  let rng = Rng.create 2 in
  let k = Keys.zipf ~n:100 ~theta:0.99 in
  let counts = Array.make 100 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Keys.sample k rng in
    counts.(v) <- counts.(v) + 1
  done;
  (* Key 0 should dominate: with theta=0.99 over 100 keys it draws ~19%. *)
  Alcotest.(check bool) "head key is hot" true
    (float_of_int counts.(0) /. float_of_int n > 0.10);
  Alcotest.(check bool) "head hotter than mid" true (counts.(0) > counts.(50) * 5)

let test_zipf_theta_zero_is_uniform () =
  let rng = Rng.create 3 in
  let k = Keys.zipf ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    counts.(Keys.sample k rng) <- counts.(Keys.sample k rng) + 0;
    let v = Keys.sample k rng in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      if c < 700 || c > 1300 then
        Alcotest.failf "theta=0 not near-uniform: %d" c)
    counts

let test_kv_gen_mix () =
  let rng = Rng.create 4 in
  let gen =
    Kv_gen.create ~rng ~keys:(Keys.uniform ~n:50) ~read_ratio:0.7 ()
  in
  let reads = ref 0 and writes = ref 0 in
  for _ = 1 to 2000 do
    match Kv.decode_command (Kv_gen.next gen) with
    | Kv.Get _ -> incr reads
    | Kv.Put _ -> incr writes
    | Kv.Delete _ | Kv.Cas _ | Kv.Append _ -> Alcotest.fail "unexpected op"
  done;
  let ratio = float_of_int !reads /. 2000.0 in
  if ratio < 0.65 || ratio > 0.75 then Alcotest.failf "read ratio off: %f" ratio

let test_preload_commands () =
  let cmds = Kv_gen.preload_commands ~n_keys:5 ~value_size:10 in
  Alcotest.(check int) "five commands" 5 (List.length cmds);
  List.iter
    (fun c ->
      match Kv.decode_command c with
      | Kv.Put (_, v) -> Alcotest.(check int) "value size" 10 (String.length v)
      | _ -> Alcotest.fail "preload must be Put")
    cmds

let test_rolling_plan () =
  let universe = [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "step 0" [ 0; 1; 2 ]
    (Schedule.rolling_plan ~universe ~size:3 ~step:0);
  Alcotest.(check (list int)) "step 1" [ 1; 2; 3 ]
    (Schedule.rolling_plan ~universe ~size:3 ~step:1);
  Alcotest.(check (list int)) "wraps" [ 4; 0; 1 ]
    (Schedule.rolling_plan ~universe ~size:3 ~step:4)

let test_closed_loop_driver () =
  let engine = Engine.create ~seed:9 () in
  let svc = KvService.create ~engine ~members:[ 0; 1; 2 ] () in
  let cluster = KvService.cluster svc in
  let rng = Rng.split (Engine.rng engine) in
  let gen = Kv_gen.create ~rng ~keys:(Keys.uniform ~n:100) () in
  let stats =
    Driver.run_closed ~cluster ~n_clients:4 ~first_client_id:100
      ~gen:(fun ~client:_ ~seq:_ -> Kv_gen.next gen)
      ~start:0.5 ~duration:3.0 ()
  in
  Engine.run ~until:10.0 engine;
  Alcotest.(check bool) "work happened" true (stats.Driver.completed > 100);
  Alcotest.(check bool) "closed loop: completed ~ submitted" true
    (stats.Driver.submitted - stats.Driver.completed <= 4);
  Alcotest.(check bool) "latencies recorded" true
    (Histogram.count stats.Driver.latency = stats.Driver.completed);
  (* LAN + paxos round trip: median latency should be around a millisecond,
     definitely under 20ms when healthy. *)
  Alcotest.(check bool) "sane median latency" true
    (Histogram.percentile stats.Driver.latency 50.0 < 0.020)

let test_open_loop_driver_rate () =
  let engine = Engine.create ~seed:10 () in
  let svc = KvService.create ~engine ~members:[ 0; 1; 2 ] () in
  let cluster = KvService.cluster svc in
  let rng = Rng.split (Engine.rng engine) in
  let gen = Kv_gen.create ~rng ~keys:(Keys.uniform ~n:100) () in
  let stats =
    Driver.run_open ~cluster ~n_clients:8 ~first_client_id:100
      ~gen:(fun ~client:_ ~seq:_ -> Kv_gen.next gen)
      ~rate:200.0 ~start:0.5 ~duration:4.0 ()
  in
  Engine.run ~until:15.0 engine;
  (* 200 req/s for 4 s ~ 800 submissions, Poisson noise aside. *)
  Alcotest.(check bool) "rate roughly honored" true
    (stats.Driver.submitted > 600 && stats.Driver.submitted < 1000);
  Alcotest.(check bool) "vast majority completed" true
    (stats.Driver.completed > stats.Driver.submitted * 9 / 10)

let test_preload_driver () =
  let engine = Engine.create ~seed:11 () in
  let svc = KvService.create ~engine ~members:[ 0; 1; 2 ] () in
  let cluster = KvService.cluster svc in
  Driver.preload ~cluster ~client:99
    ~commands:(Kv_gen.preload_commands ~n_keys:200 ~value_size:32)
    ~deadline:60.0 ();
  match KvService.app_state svc 0 with
  | Some st -> Alcotest.(check int) "all keys installed" 200 (Kv.cardinal st)
  | None -> Alcotest.fail "no state"

(* [key_name] writes what [Printf.sprintf "key%08d"] does, from one
   digit to [max_int]'s nineteen. *)
let test_key_name_edges () =
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "key_name %d" i)
        (Printf.sprintf "key%08d" i) (Keys.key_name i))
    [ 0; 1; 9; 10; 42; 9_999_999; 10_000_000; 99_999_999; 100_000_000;
      123_456_789_012; max_int ];
  Alcotest.check_raises "negative index"
    (Invalid_argument "Keys.key_name: negative index") (fun () ->
      ignore (Keys.key_name (-1)))

let prop_key_name_matches_sprintf =
  QCheck.Test.make ~name:"key_name is sprintf key%08d" ~count:1000
    QCheck.(oneof [ int_range 0 1_000_000_000; map abs int ])
    (fun i ->
      i < 0 || String.equal (Keys.key_name i) (Printf.sprintf "key%08d" i))

(* A string of [n] bytes is a header and [(n + 8) / 8] words, and that is
   all [key_name] allocates. *)
let test_key_name_allocates_its_result () =
  let check i =
    let n = String.length (Keys.key_name i) in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Keys.key_name i));
    let words = Gc.minor_words () -. before in
    Alcotest.(check (float 0.))
      (Printf.sprintf "words for key_name %d" i)
      (float_of_int (1 + ((n + 8) / 8)))
      words
  in
  List.iter check [ 0; 42; 99_999_999; 100_000_000; max_int ]

let () =
  Alcotest.run "workload"
    [
      ( "keys",
        [
          Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf theta=0" `Quick test_zipf_theta_zero_is_uniform;
          Alcotest.test_case "key_name edges" `Quick test_key_name_edges;
          QCheck_alcotest.to_alcotest prop_key_name_matches_sprintf;
          Alcotest.test_case "key_name allocation" `Quick
            test_key_name_allocates_its_result;
        ] );
      ( "gen",
        [
          Alcotest.test_case "kv mix" `Quick test_kv_gen_mix;
          Alcotest.test_case "preload commands" `Quick test_preload_commands;
        ] );
      ( "schedule",
        [ Alcotest.test_case "rolling plan" `Quick test_rolling_plan ] );
      ( "driver",
        [
          Alcotest.test_case "closed loop" `Quick test_closed_loop_driver;
          Alcotest.test_case "open loop rate" `Quick test_open_loop_driver_rate;
          Alcotest.test_case "preload" `Quick test_preload_driver;
        ] );
    ]
