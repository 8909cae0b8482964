(* The zero-copy wire fast path, observed from outside:

   - Network.broadcast sizes and tags its payload exactly once for the
     whole fan-out (send still pays once per message);
   - a Replica given a [broadcast] hook routes full fan-outs through it
     instead of per-destination [send] (so the service layer can encode
     the payload once);
   - the event-queue heap drops popped payloads and shrinks after bursts. *)

module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Heap = Rsmr_sim.Heap
module Network = Rsmr_net.Network
module Replica = Rsmr_smr.Replica
module Config = Rsmr_smr.Config
module Params = Rsmr_smr.Params

let test_broadcast_sizes_once () =
  let engine = Engine.create ~seed:7 () in
  let sizer_calls = ref 0 in
  let tagger_calls = ref 0 in
  let net =
    Network.create engine
      ~tagger:(fun (_ : string) ->
        incr tagger_calls;
        "msg")
      ~sizer:(fun s ->
        incr sizer_calls;
        String.length s)
      ()
  in
  Network.broadcast net ~src:0 ~dsts:[ 0; 1; 2; 3; 4; 5 ] "payload!";
  Alcotest.(check int) "sizer ran once for 5-way broadcast" 1 !sizer_calls;
  Alcotest.(check int) "tagger ran once for 5-way broadcast" 1 !tagger_calls;
  let c = Network.counters net in
  Alcotest.(check int) "five messages sent (src excluded)" 5
    (Counters.get c "sent");
  Alcotest.(check int) "five sent.msg" 5 (Counters.get c "sent.msg");
  Alcotest.(check int) "bytes counted per copy" 40
    (Counters.get c "bytes_sent");
  (* Per-destination sends pay the sizer each time — the broadcast saving
     is real, not an accounting change. *)
  List.iter
    (fun dst -> Network.send net ~src:0 ~dst "payload!")
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "send sizes per message" 6 !sizer_calls;
  Alcotest.(check int) "ten messages total" 10 (Counters.get c "sent")

let test_replica_uses_broadcast_hook () =
  let engine = Engine.create ~seed:11 () in
  let cfg = Config.make ~instance_id:0 ~members:[ 0; 1; 2; 3; 4; 5 ] in
  let sends = ref 0 in
  let broadcasts = ref 0 in
  let r =
    (* Node 1, not the ballot-0 owner: it sends nothing until it runs
       for election. *)
    Replica.create ~engine ~params:Params.default ~config:cfg ~me:1
      ~send:(fun ~dst:_ _ -> incr sends)
      ~broadcast:(fun _ -> incr broadcasts)
      ~on_decide:(fun _ _ -> ())
      ()
  in
  Replica.kick_election r;
  (* The Prepare fan-out goes through the hook exactly once; nothing went
     out per-destination. *)
  Alcotest.(check int) "election used one broadcast" 1 !broadcasts;
  Alcotest.(check int) "no per-destination sends" 0 !sends

let test_heap_releases_and_shrinks () =
  let h = Heap.create ~dummy:"" in
  (* Track liveness of a popped payload via a weak pointer. *)
  let w = Weak.create 1 in
  let payload = ref (String.make 1024 'x') in
  Weak.set w 0 (Some !payload);
  Heap.push h ~time:1.0 ~seq:0 !payload;
  for i = 1 to 4096 do
    Heap.push h ~time:(2.0 +. float_of_int i) ~seq:i "filler"
  done;
  Alcotest.(check string) "min first" !payload (Heap.top h);
  Heap.drop h;
  payload := "";
  Gc.full_major ();
  Alcotest.(check bool) "popped payload is collectable" true
    (Weak.get w 0 = None);
  (* Drain the burst: occupancy tracks len and the drop path stays sane. *)
  let rec drain n =
    if Heap.is_empty h then n
    else begin
      Heap.drop h;
      drain (n + 1)
    end
  in
  Alcotest.(check int) "all filler drained" 4096 (drain 0);
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h);
  Alcotest.(check string) "an empty heap's top is the dummy" "" (Heap.top h);
  Heap.drop h;
  Alcotest.(check int) "drop on an empty heap is a no-op" 0 (Heap.size h);
  (* FIFO among simultaneous events still holds after the rewrite. *)
  List.iter (fun seq -> Heap.push h ~time:9.0 ~seq (string_of_int seq)) [ 2; 0; 1 ];
  let order =
    List.map
      (fun () ->
        let p = Heap.top h in
        Heap.drop h;
        p)
      [ (); (); () ]
  in
  Alcotest.(check (list string)) "seq breaks ties FIFO" [ "0"; "1"; "2" ] order

let () =
  Alcotest.run "fastpath"
    [
      ( "network",
        [
          Alcotest.test_case "broadcast sizes+tags once" `Quick
            test_broadcast_sizes_once;
        ] );
      ( "replica",
        [
          Alcotest.test_case "broadcast hook used for fan-out" `Quick
            test_replica_uses_broadcast_hook;
        ] );
      ( "heap",
        [
          Alcotest.test_case "pop releases payload, shrinks" `Quick
            test_heap_releases_and_shrinks;
        ] );
    ]
