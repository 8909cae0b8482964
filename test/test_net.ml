(* Tests for the simulated network: delivery, faults, partitions,
   accounting. *)

module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Network = Rsmr_net.Network
module Latency = Rsmr_net.Latency
module Node_id = Rsmr_net.Node_id

let setup ?latency ?drop ?duplicate n =
  let engine = Engine.create ~seed:7 () in
  let net = Network.create engine ?latency ?drop () in
  Option.iter (Network.set_duplicate net) duplicate;
  let inboxes = Array.make n [] in
  for i = 0 to n - 1 do
    Network.register net i (fun env ->
        inboxes.(i) <- (env.Network.src, env.Network.payload) :: inboxes.(i))
  done;
  (engine, net, inboxes)

let test_basic_delivery () =
  let engine, net, inboxes = setup 3 in
  Network.send net ~src:0 ~dst:1 "hello";
  Network.send net ~src:0 ~dst:2 "world";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "node 1 got hello" [ (0, "hello") ]
    inboxes.(1);
  Alcotest.(check (list (pair int string))) "node 2 got world" [ (0, "world") ]
    inboxes.(2);
  Alcotest.(check (list (pair int string))) "node 0 got nothing" [] inboxes.(0)

let test_latency_applied () =
  let engine, net, _ = setup ~latency:(Latency.Constant 0.05) 2 in
  let arrival = ref 0.0 in
  Network.register net 1 (fun _ -> arrival := Engine.now engine);
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  (* Allow for the default bandwidth model's sub-microsecond egress delay. *)
  Alcotest.(check (float 1e-5)) "constant latency" 0.05 !arrival

let test_bandwidth_serialization () =
  let engine = Engine.create () in
  (* 1 MB/s uplink, zero propagation latency. *)
  let net =
    Network.create engine ~latency:(Latency.Constant 0.0) ~bandwidth:1e6
      ~sizer:String.length ()
  in
  let arrivals = ref [] in
  Network.register net 1 (fun _ -> arrivals := Engine.now engine :: !arrivals);
  (* Two 100 KB messages: the second queues behind the first. *)
  Network.send net ~src:0 ~dst:1 (String.make 100_000 'x');
  Network.send net ~src:0 ~dst:1 (String.make 100_000 'y');
  Engine.run engine;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-6)) "first after 0.1s" 0.1 t1;
    Alcotest.(check (float 1e-6)) "second queues to 0.2s" 0.2 t2
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

(* --- two classes on one uplink: bulk waits behind control --- *)

let chunk s = s.[0] = 'c'

(* Two 100 KB chunks and then a 1 KB control message, all at time 0 on a
   1 MB/s uplink: the control message overtakes the queued chunk, but the
   chunk already on the wire finishes first. *)
let test_control_overtakes_queued_bulk () =
  let engine = Engine.create () in
  let net =
    Network.create engine ~latency:(Latency.Constant 0.0) ~bandwidth:1e6
      ~bulk:chunk ~sizer:String.length ()
  in
  let arrivals = ref [] in
  Network.register net 1 (fun env ->
      let at_ms = Float.round (Engine.now engine *. 1e6) /. 1e3 in
      arrivals := (String.sub env.Network.payload 0 2, at_ms) :: !arrivals);
  Network.send net ~src:0 ~dst:1 ("c1" ^ String.make 99_998 'x');
  Network.send net ~src:0 ~dst:1 ("c2" ^ String.make 99_998 'x');
  Network.send net ~src:0 ~dst:1 ("a1" ^ String.make 998 'x');
  Engine.run engine;
  Alcotest.(check (list (pair string (float 1e-9))))
    "arrival order and times (ms)"
    [ ("c1", 100.0); ("a1", 101.0); ("c2", 201.0) ]
    (List.rev !arrivals)

(* Each class keeps its send order per link under jittery latency and
   duplication, while control messages overtake the queued chunks. *)
let prop_fifo_per_class =
  QCheck.Test.make ~name:"each class stays FIFO per link" ~count:40
    QCheck.(pair (float_range 0.0 1.0) small_int)
    (fun (dup, seed) ->
      let engine = Engine.create ~seed:(seed + 1) () in
      let net =
        Network.create engine ~latency:(Latency.Uniform (0.001, 0.05))
          ~bandwidth:1e6 ~bulk:chunk ~sizer:String.length ()
      in
      Network.set_duplicate net dup;
      let seen = ref [] in
      Network.register net 1 (fun env ->
          seen := (env.Network.payload.[0], env.Network.payload.[1]) :: !seen);
      (* Interleaved: 50 KB chunks c1..c5 and 100 B control a1..a5. *)
      for k = 1 to 5 do
        let id = Char.chr (Char.code '0' + k) in
        Network.send net ~src:0 ~dst:1
          (String.make 1 'c' ^ String.make 1 id ^ String.make 49_998 'x');
        Network.send net ~src:0 ~dst:1
          (String.make 1 'a' ^ String.make 1 id ^ String.make 98 'x')
      done;
      Engine.run engine;
      let delivered = List.rev !seen in
      let ids cls = List.filter_map (fun (c, id) -> if c = cls then Some id else None) delivered in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      let position x =
        let rec go i = function
          | [] -> max_int
          | y :: rest -> if y = x then i else go (i + 1) rest
        in
        go 0 delivered
      in
      sorted (ids 'c') && sorted (ids 'a')
      && List.length (List.sort_uniq compare delivered) = 10
      && position ('a', '5') < position ('c', '5'))

(* With no bulk traffic the two-class uplink is the one-class uplink: a
   fixed mixed workload (loss, duplication, jitter, broadcast, self-sends,
   serialization) arrives at bit-identical times, and the same digest is
   what the one-class network produced. *)
let arrival_log ?bulk () =
  let engine = Engine.create ~seed:11 () in
  let net =
    Network.create engine ~latency:(Latency.Uniform (0.0005, 0.02)) ~drop:0.1
      ~bandwidth:1e6 ?bulk ~sizer:String.length ()
  in
  Network.set_duplicate net 0.2;
  let log = Buffer.create 4096 in
  for i = 0 to 3 do
    Network.register net i (fun env ->
        Printf.bprintf log "%d<-%d:%s@%Lx;" i env.Network.src
          (String.sub env.Network.payload 0 4)
          (Int64.bits_of_float (Engine.now engine)))
  done;
  for k = 0 to 39 do
    let payload = Printf.sprintf "%04d" k ^ String.make (k * 997 mod 5000) 'x' in
    let src = k mod 4 in
    ignore
      (Engine.schedule engine ~delay:(float_of_int (k / 3) *. 0.002) (fun () ->
           if k mod 7 = 3 then
             Network.broadcast net ~src ~dsts:[ 0; 1; 2; 3 ] payload
           else Network.send net ~src ~dst:((k * 3 + 1) mod 4) payload))
  done;
  Engine.run engine;
  Buffer.contents log

let test_no_bulk_bit_identical () =
  let digest log = Digest.to_hex (Digest.string log) in
  let one_class = "2751c4688f967371341670b9deeb35e2" in
  Alcotest.(check string) "no classifier" one_class (digest (arrival_log ()));
  Alcotest.(check string) "classifier that never fires" one_class
    (digest (arrival_log ~bulk:(fun _ -> false) ()))

(* Enumerate mode keeps one queue per (link, class): a control head is
   deliverable before an earlier chunk on the same link. *)
let test_enumerate_two_queues () =
  let engine = Engine.create () in
  let net = Network.create engine ~mode:`Enumerate ~bulk:chunk () in
  let got = ref [] in
  Network.register net 1 (fun env -> got := env.Network.payload :: !got);
  Network.send net ~src:0 ~dst:1 "c1";
  Network.send net ~src:0 ~dst:1 "a1";
  Network.send net ~src:0 ~dst:1 "c2";
  Alcotest.(check (list (triple int int bool)))
    "one queue per class" [ (0, 1, false); (0, 1, true) ] (Network.links net);
  Alcotest.(check (list string)) "bulk queue" [ "c1"; "c2" ]
    (Network.queued net ~src:0 ~dst:1 ~bulk:true);
  Alcotest.(check (option string)) "control head first" (Some "a1")
    (Network.deliver_head net ~src:0 ~dst:1 ~bulk:false);
  Alcotest.(check (option string)) "then the chunks, in order" (Some "c1")
    (Network.deliver_head net ~src:0 ~dst:1 ~bulk:true);
  Alcotest.(check (list string)) "delivered" [ "a1"; "c1" ] (List.rev !got);
  Alcotest.(check int) "one left" 1 (Network.pending_total net)

let test_drop_all () =
  let engine, net, inboxes = setup ~drop:1.0 2 in
  for _ = 1 to 20 do
    Network.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "all dropped" [] inboxes.(1);
  Alcotest.(check int) "drop counter" 20
    (Counters.get (Network.counters net) "dropped")

let test_duplication () =
  let engine, net, inboxes = setup ~duplicate:1.0 2 in
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  Alcotest.(check int) "two copies" 2 (List.length inboxes.(1))

let test_crash_blocks_delivery () =
  let engine, net, inboxes = setup 2 in
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 "lost";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "crashed node receives nothing" []
    inboxes.(1);
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 "after";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "delivery resumes" [ (0, "after") ]
    inboxes.(1)

let test_crashed_node_cannot_send () =
  let engine, net, inboxes = setup 2 in
  Network.crash net 0;
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "nothing delivered" [] inboxes.(1)

let test_partition () =
  let engine, net, inboxes = setup 4 in
  Network.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Network.send net ~src:0 ~dst:1 "same-side";
  Network.send net ~src:0 ~dst:2 "cross";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "same side flows"
    [ (0, "same-side") ] inboxes.(1);
  Alcotest.(check (list (pair int string))) "cross side blocked" [] inboxes.(2);
  Network.heal net;
  Network.send net ~src:0 ~dst:2 "healed";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "healed flows" [ (0, "healed") ]
    inboxes.(2)

let test_partition_cuts_inflight () =
  let engine, net, inboxes = setup ~latency:(Latency.Constant 0.1) 2 in
  Network.send net ~src:0 ~dst:1 "inflight";
  (* Partition lands while the message is still in the air. *)
  ignore
    (Engine.schedule engine ~delay:0.05 (fun () ->
         Network.partition net [ [ 0 ]; [ 1 ] ]));
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "inflight message cut" []
    inboxes.(1)

let test_broadcast_excludes_self () =
  let engine, net, inboxes = setup 3 in
  Network.broadcast net ~src:0 ~dsts:[ 0; 1; 2 ] "b";
  Engine.run engine;
  Alcotest.(check int) "self excluded" 0 (List.length inboxes.(0));
  Alcotest.(check int) "others get it" 1 (List.length inboxes.(1));
  Alcotest.(check int) "others get it (2)" 1 (List.length inboxes.(2))

let test_byte_accounting () =
  let engine = Engine.create () in
  let net =
    Network.create engine ~sizer:String.length ()
  in
  Network.register net 1 (fun _ -> ());
  Network.send net ~src:0 ~dst:1 "12345";
  Network.send net ~src:0 ~dst:1 "123";
  Engine.run engine;
  Alcotest.(check int) "bytes counted" 8
    (Counters.get (Network.counters net) "bytes_sent")

let test_link_fault () =
  let engine, net, inboxes = setup 3 in
  Network.set_link_fault net ~src:0 ~dst:1 ~drop:1.0;
  Network.send net ~src:0 ~dst:1 "x";
  Network.send net ~src:0 ~dst:2 "y";
  Network.send net ~src:1 ~dst:0 "z";
  Engine.run engine;
  Alcotest.(check int) "faulted direction drops" 0 (List.length inboxes.(1));
  Alcotest.(check int) "other destination fine" 1 (List.length inboxes.(2));
  Alcotest.(check int) "reverse direction fine" 1 (List.length inboxes.(0));
  Network.clear_link_faults net;
  Network.send net ~src:0 ~dst:1 "x2";
  Engine.run engine;
  Alcotest.(check int) "cleared fault flows" 1 (List.length inboxes.(1))

let test_unregistered_dropped () =
  let engine = Engine.create () in
  let net = Network.create engine () in
  Network.send net ~src:0 ~dst:9 "x";
  Engine.run engine;
  Alcotest.(check int) "dropped for missing handler" 1
    (Counters.get (Network.counters net) "dropped")

(* Fault-model properties backing the crucible harness: the scripted
   fault timeline assumes these semantics hold for arbitrary topologies
   and probabilities, not just the hand-picked cases above. *)

let all_pairs n =
  List.concat_map
    (fun i ->
      List.filter_map
        (fun j -> if i <> j then Some (i, j) else None)
        (List.init n Fun.id))
    (List.init n Fun.id)

let prop_partition_heal =
  QCheck.Test.make
    ~name:"partition blocks exactly cross-group pairs; heal restores all pairs"
    ~count:40
    QCheck.(pair (int_range 2 6) small_int)
    (fun (n, mask) ->
      let engine = Engine.create ~seed:(mask + 1) () in
      let net = Network.create engine () in
      let got = Hashtbl.create 32 in
      for i = 0 to n - 1 do
        Network.register net i (fun env ->
            Hashtbl.replace got (env.Network.src, i) ())
      done;
      (* A random two-way split from the mask bits; nodes 0 and 1 are
         pinned to opposite sides so neither group is empty. *)
      let group i =
        if i = 0 then 0 else if i = 1 then 1 else (mask lsr i) land 1
      in
      let side g =
        List.filter (fun i -> group i = g) (List.init n Fun.id)
      in
      let pairs = all_pairs n in
      Network.partition net [ side 0; side 1 ];
      List.iter (fun (i, j) -> Network.send net ~src:i ~dst:j ()) pairs;
      Engine.run engine;
      let split_ok =
        List.for_all
          (fun (i, j) -> Hashtbl.mem got (i, j) = (group i = group j))
          pairs
      in
      Hashtbl.reset got;
      Network.heal net;
      List.iter (fun (i, j) -> Network.send net ~src:i ~dst:j ()) pairs;
      Engine.run engine;
      split_ok && List.for_all (fun p -> Hashtbl.mem got p) pairs)

let prop_link_fault_exact =
  QCheck.Test.make
    ~name:"link fault at drop 1.0 kills exactly that directed link"
    ~count:40
    QCheck.(triple (int_bound 4) (int_bound 4) small_int)
    (fun (src, dst, seed) ->
      QCheck.assume (src <> dst);
      let n = 5 in
      let engine = Engine.create ~seed:(seed + 1) () in
      let net = Network.create engine () in
      let got = Hashtbl.create 32 in
      for i = 0 to n - 1 do
        Network.register net i (fun env ->
            Hashtbl.replace got (env.Network.src, i) ())
      done;
      Network.set_link_fault net ~src ~dst ~drop:1.0;
      let pairs = all_pairs n in
      List.iter (fun (i, j) -> Network.send net ~src:i ~dst:j ()) pairs;
      Engine.run engine;
      List.for_all
        (fun (i, j) -> Hashtbl.mem got (i, j) = not (i = src && j = dst))
        pairs)

let prop_crash_cuts_inflight =
  QCheck.Test.make
    ~name:"messages in flight to a node crashed before delivery are dropped"
    ~count:40
    QCheck.(pair (float_range 0.001 0.099) small_int)
    (fun (crash_at, seed) ->
      let engine = Engine.create ~seed:(seed + 1) () in
      let net = Network.create engine ~latency:(Latency.Constant 0.1) () in
      let got = ref 0 in
      Network.register net 1 (fun _ -> incr got);
      Network.send net ~src:0 ~dst:1 ();
      (* The crash always lands while the message is still in the air. *)
      ignore
        (Engine.schedule engine ~delay:crash_at (fun () ->
             Network.crash net 1));
      Engine.run engine;
      !got = 0)

let prop_fifo_under_duplication =
  QCheck.Test.make
    ~name:"per-link FIFO order survives any duplication rate"
    ~count:40
    QCheck.(pair (float_range 0.0 1.0) small_int)
    (fun (dup, seed) ->
      let engine = Engine.create ~seed:(seed + 1) () in
      (* Wide jittery latency so reordering would happen without the FIFO
         clamp — duplicates get their own sampled delay too. *)
      let net =
        Network.create engine ~latency:(Latency.Uniform (0.001, 0.2)) ()
      in
      Network.set_duplicate net dup;
      let seen = ref [] in
      Network.register net 1 (fun env ->
          seen := env.Network.payload :: !seen);
      let n = 30 in
      for k = 1 to n do
        Network.send net ~src:0 ~dst:1 k
      done;
      Engine.run engine;
      let delivered = List.rev !seen in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      (* No drop configured: every sequence number arrives at least once,
         and the delivery order (duplicates included) never regresses. *)
      sorted delivered
      && List.for_all (fun k -> List.mem k delivered) (List.init n (fun i -> i + 1)))

let prop_loss_rate =
  QCheck.Test.make ~name:"empirical loss rate tracks drop probability"
    ~count:20
    QCheck.(float_range 0.0 0.9)
    (fun p ->
      let engine = Engine.create ~seed:13 () in
      let net = Network.create engine ~drop:p () in
      let got = ref 0 in
      Network.register net 1 (fun _ -> incr got);
      let n = 2000 in
      for _ = 1 to n do
        Network.send net ~src:0 ~dst:1 ()
      done;
      Engine.run engine;
      let observed = 1.0 -. (float_of_int !got /. float_of_int n) in
      abs_float (observed -. p) < 0.05)

(* --- allocation --- *)

(* A steady-state send and its delivery, on a tagged, sized network with
   LAN latency and the bandwidth model on: what every protocol message
   pays in the simulator.  What is left is per message: the envelope,
   the arrival closure, the engine timer, and a few boxed floats and
   lookup options.  The first send sizes the link and uplink cells and
   resolves the tag's counters, so it is left out. *)
let test_send_allocation () =
  let engine = Engine.create ~seed:7 () in
  let net =
    Network.create engine ~tagger:(fun _ -> "m") ~sizer:String.length ()
  in
  let got = ref 0 in
  Network.register net 1 (fun _ -> incr got);
  let cycle () =
    Network.send net ~src:0 ~dst:1 "x";
    Engine.run engine
  in
  cycle ();
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    cycle ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "all delivered" (n + 1) !got;
  if words > 26. then
    Alcotest.failf "send + delivery allocates %.2f words, budget 26" words

let () =
  Alcotest.run "net"
    [
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_basic_delivery;
          Alcotest.test_case "latency" `Quick test_latency_applied;
          Alcotest.test_case "bandwidth serialization" `Quick
            test_bandwidth_serialization;
          Alcotest.test_case "broadcast excludes self" `Quick
            test_broadcast_excludes_self;
          Alcotest.test_case "unregistered dropped" `Quick
            test_unregistered_dropped;
        ] );
      ( "classes",
        [
          Alcotest.test_case "control overtakes queued bulk" `Quick
            test_control_overtakes_queued_bulk;
          QCheck_alcotest.to_alcotest prop_fifo_per_class;
          Alcotest.test_case "no bulk: bit-identical arrivals" `Quick
            test_no_bulk_bit_identical;
          Alcotest.test_case "enumerate: a queue per class" `Quick
            test_enumerate_two_queues;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop all" `Quick test_drop_all;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "crash blocks delivery" `Quick
            test_crash_blocks_delivery;
          Alcotest.test_case "crashed cannot send" `Quick
            test_crashed_node_cannot_send;
          Alcotest.test_case "link fault" `Quick test_link_fault;
          QCheck_alcotest.to_alcotest prop_loss_rate;
          QCheck_alcotest.to_alcotest prop_link_fault_exact;
          QCheck_alcotest.to_alcotest prop_crash_cuts_inflight;
          QCheck_alcotest.to_alcotest prop_fifo_under_duplication;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "cuts inflight" `Quick test_partition_cuts_inflight;
          QCheck_alcotest.to_alcotest prop_partition_heal;
        ] );
      ( "accounting",
        [ Alcotest.test_case "bytes" `Quick test_byte_accounting ] );
      ( "allocation",
        [
          Alcotest.test_case "send + delivery within budget" `Quick
            test_send_allocation;
        ] );
    ]
