(* Tests for the reconfigurable composition layer: exactly-once execution,
   wedging, state transfer (local and remote), residual re-submission,
   speculative handoff, chained reconfigurations, and fault tolerance
   across configuration changes. *)

module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Network = Rsmr_net.Network
module Node_id = Rsmr_net.Node_id
module Kv = Rsmr_app.Kv
module Counter = Rsmr_app.Counter
module Options = Rsmr_core.Options
module Envelope = Rsmr_core.Envelope
module Session = Rsmr_core.Session
module Snapshot = Rsmr_core.Snapshot
module Wire = Rsmr_core.Wire
module Strategy = Rsmr_iface.Reconfig_strategy
module KvService = Rsmr_core.Service.Make (Rsmr_app.Kv)
module CtrService = Rsmr_core.Service.Make (Rsmr_app.Counter)

(* Faults and membership changes go through the cluster's control
   surface. *)
let crash (c : Rsmr_iface.Cluster.t) =
  Rsmr_iface.Overlay.crash c.Rsmr_iface.Cluster.control
let reconfigure (c : Rsmr_iface.Cluster.t) =
  Rsmr_iface.Overlay.reconfigure c.Rsmr_iface.Cluster.control

(* --- plumbing units --- *)

(* A command reader that takes the command frame's bytes as they are. *)
let raw_command r =
  let b = Buffer.create 16 in
  while not (Rsmr_app.Codec.Reader.at_end r) do
    Buffer.add_char b (Char.chr (Rsmr_app.Codec.Reader.u8 r))
  done;
  Buffer.contents b

let test_envelope_roundtrip () =
  let cases =
    [
      Envelope.App { client = 100; seq = 7; low_water = 5; cmd = "payload" };
      Envelope.Reconfig { client = 2; seq = 1; members = [ 0; 1; 4 ] };
      Envelope.Drain;
    ]
  in
  List.iter
    (fun e ->
      if Envelope.decode raw_command (Envelope.encode e) <> e then
        Alcotest.failf "envelope roundtrip failed for %S" (Envelope.encode e))
    cases

let test_session_semantics () =
  let s = Session.create () in
  Alcotest.(check bool) "fresh is new" true
    (Session.check s ~client:1 ~seq:1 = `New);
  Session.record s ~client:1 ~seq:1 ~rsp:"r1";
  Alcotest.(check bool) "same seq dup" true
    (Session.check s ~client:1 ~seq:1 = `Dup "r1");
  Alcotest.(check bool) "next seq new" true
    (Session.check s ~client:1 ~seq:2 = `New);
  Session.record s ~client:1 ~seq:2 ~rsp:"r2";
  Alcotest.(check bool) "older seq still deduped (pipelined clients)" true
    (Session.check s ~client:1 ~seq:1 = `Dup "r1");
  Alcotest.(check bool) "other client independent" true
    (Session.check s ~client:2 ~seq:1 = `New);
  let s' = Session.decode (Session.encode s) in
  Alcotest.(check bool) "codec roundtrip preserves dedup" true
    (Session.check s' ~client:1 ~seq:2 = `Dup "r2")

let test_session_trim () =
  let s = Session.create () in
  for i = 1 to 10 do
    Session.record s ~client:1 ~seq:i ~rsp:(Printf.sprintf "r%d" i)
  done;
  Session.record s ~client:2 ~seq:1 ~rsp:"other";
  Alcotest.(check int) "all retained" 11 (Session.cardinal s);
  Session.trim s ~client:1 ~below:8;
  Alcotest.(check int) "trimmed below watermark" 4 (Session.cardinal s);
  Alcotest.(check bool) "watermark entry kept" true
    (Session.check s ~client:1 ~seq:8 = `Dup "r8");
  Alcotest.(check bool) "above watermark kept" true
    (Session.check s ~client:1 ~seq:10 = `Dup "r10");
  Alcotest.(check bool) "below watermark recognized as stale, not new" true
    (Session.check s ~client:1 ~seq:3 = `Stale);
  Alcotest.(check bool) "other client untouched" true
    (Session.check s ~client:2 ~seq:1 = `Dup "other");
  Session.trim s ~client:2 ~below:100;
  Alcotest.(check bool) "fully trimmed client keeps its floor" true
    (Session.check s ~client:2 ~seq:1 = `Stale);
  Alcotest.(check bool) "above the floor is new" true
    (Session.check s ~client:2 ~seq:200 = `New)

(* The decide path's per-command session work: one client sliding a
   16-deep response window.  Once the window's arrays have grown, a step
   allocates nothing. *)
let test_session_steady_state_allocates_nothing () =
  let s = Session.create () in
  let rsp = "response" in
  let step i =
    (match Session.check s ~client:7 ~seq:i with
     | `New -> ()
     | `Dup _ | `Stale -> Alcotest.fail "fresh seq not new");
    Session.record s ~client:7 ~seq:i ~rsp;
    Session.trim s ~client:7 ~below:(i - 15)
  in
  for i = 0 to 999 do
    step i
  done;
  let steps = 10_000 in
  let before = Gc.minor_words () in
  for i = 1000 to 999 + steps do
    step i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words per step" 0.
    (words /. float_of_int steps);
  Alcotest.(check int) "window depth" 16 (Session.cardinal s)

(* --- Session against its reference model (the persistent map
   implementation in session_model.ml) --- *)

type session_op =
  | Check of int * int
  | Record of int * int * string
  | Trim of int * int
  | Copy of session_op list  (* mutations applied to the copy only *)
  | Encode

let session_op_gen =
  QCheck.Gen.(
    (* few clients, a narrow seq range: repeated seqs, records at or below
       the floor, unknown clients and trims on absent clients all occur *)
    let client = int_range (-2) 3 and seq = int_range 0 24 in
    let rsp = string_size ~gen:(char_range 'a' 'c') (int_bound 3) in
    let mutation =
      frequency
        [
          (4, map3 (fun c q r -> Record (c, q, r)) client seq rsp);
          (2, map2 (fun c b -> Trim (c, b)) client (int_range 0 26));
        ]
    in
    frequency
      [
        (3, map2 (fun c q -> Check (c, q)) client seq);
        (6, mutation);
        (1, map (fun ms -> Copy ms) (list_size (int_bound 6) mutation));
        (1, return Encode);
      ])

let rec show_session_op = function
  | Check (c, q) -> Printf.sprintf "check %d %d" c q
  | Record (c, q, r) -> Printf.sprintf "record %d %d %S" c q r
  | Trim (c, b) -> Printf.sprintf "trim %d %d" c b
  | Copy ms ->
    Printf.sprintf "copy [%s]" (String.concat "; " (List.map show_session_op ms))
  | Encode -> "encode"

let rec apply_session_op (t, m) op =
  match op with
  | Check (client, seq) ->
    Session.check t ~client ~seq = Session_model.check m ~client ~seq, m
  | Record (client, seq, rsp) ->
    Session.record t ~client ~seq ~rsp;
    (true, Session_model.record m ~client ~seq ~rsp)
  | Trim (client, below) ->
    Session.trim t ~client ~below;
    (true, Session_model.trim m ~client ~below)
  | Copy ms ->
    let before = Session.encode t in
    let c = Session.copy t in
    let same = Session.encode c = before in
    let copy_ok, m' =
      List.fold_left
        (fun (ok, m') op ->
          let ok', m' = apply_session_op (c, m') op in
          (ok && ok', m'))
        (true, m) ms
    in
    ( same && copy_ok
      && Session.encode c = Session_model.encode m'
      && Session.encode t = before,
      m )
  | Encode ->
    let bytes = Session.encode t in
    ( bytes = Session_model.encode m
      && Session.encode (Session.decode bytes) = bytes
      && Session.cardinal t = Session_model.cardinal m,
      m )

let prop_session_matches_model =
  QCheck.Test.make ~name:"session table matches its reference model"
    ~count:2000
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map show_session_op ops))
       QCheck.Gen.(list_size (int_bound 40) session_op_gen))
    (fun ops ->
      let t = Session.create () in
      let ok, m =
        List.fold_left
          (fun (ok, m) op ->
            let ok', m = apply_session_op (t, m) op in
            (ok && ok', m))
          (true, Session_model.empty) ops
      in
      ok && Session.encode t = Session_model.encode m)

let test_snapshot_chunking () =
  let t =
    { Snapshot.app = String.init 1000 (fun i -> Char.chr (i mod 256));
      sessions = "" }
  in
  let pieces = Snapshot.chunk t ~size:64 in
  Alcotest.(check int) "piece count" 16 (List.length pieces);
  Alcotest.(check (list string)) "the encoding, cut"
    (Snapshot_model.chunk (Snapshot.encode t) ~size:64)
    pieces;
  Alcotest.(check bool) "reassembles" true (Snapshot.of_chunks pieces = t)

let test_wire_roundtrip () =
  let cases =
    [
      Wire.Block
        { epoch = 3;
          data = Rsmr_smr.Msg.encode (Rsmr_smr.Msg.Submit { value = "v" }) };
      Wire.Client (Rsmr_client.Client_msg.Reply { seq = 1; rsp = "r" });
      Wire.Bootstrap
        { epoch = 2; members = [ 3; 4; 5 ]; prev_epoch = 1; prev_members = [ 0; 1; 2 ] };
      Wire.Fetch_state { epoch = 2 };
      Wire.State_chunk { epoch = 2; index = 1; total = 4; data = "abc" };
      Wire.Retire { epoch = 2 };
      Wire.Dir_update { epoch = 2; members = [ 3; 4 ]; leader = Some 3 };
      Wire.Dir_lookup;
      Wire.Dir_info { epoch = 2; members = [ 3; 4 ]; leader = None };
    ]
  in
  List.iter
    (fun m ->
      if Wire.decode (Wire.encode m) <> m then
        Alcotest.failf "wire roundtrip failed for %a" Wire.pp m)
    cases

(* --- end-to-end harness --- *)

type 'svc harness = {
  engine : Engine.t;
  svc : 'svc;
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

let kv_harness ?(seed = 1) ?drop ?options ?universe ~members ~clients () =
  let engine = Engine.create ~seed () in
  let svc = KvService.create ~engine ?drop ?options ?universe ~members () in
  let cluster = KvService.cluster svc in
  let replies = Hashtbl.create 64 in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client ~seq ~rsp ->
      Hashtbl.replace replies (client, seq) rsp);
  List.iter cluster.Rsmr_iface.Cluster.add_client clients;
  { engine; svc; cluster; replies }

let submit_kv h ~client ~seq cmd =
  h.cluster.Rsmr_iface.Cluster.submit ~client ~seq
    ~cmd:(Kv.encode_command cmd)

let reply_of h ~client ~seq =
  Option.map Kv.decode_response (Hashtbl.find_opt h.replies (client, seq))

let has_reply h ~client ~seq = Hashtbl.mem h.replies (client, seq)

let c1 = 100 (* client ids, clear of any replica/directory/admin id *)

let test_basic_put_get () =
  let h = kv_harness ~members:[ 0; 1; 2 ] ~clients:[ c1 ] () in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("k", "v"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  Alcotest.(check bool) "put ok" true (reply_of h ~client:c1 ~seq:1 = Some Kv.Ok);
  submit_kv h ~client:c1 ~seq:2 (Kv.Get "k");
  run_until h ~deadline:10.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  Alcotest.(check bool) "get sees put" true
    (reply_of h ~client:c1 ~seq:2 = Some (Kv.Value (Some "v")))

let test_exactly_once_on_retry () =
  (* A counter makes double-application visible. *)
  let engine = Engine.create ~seed:5 () in
  let svc = CtrService.create ~engine ~members:[ 0; 1; 2 ] () in
  let cluster = CtrService.cluster svc in
  let replies = Hashtbl.create 8 in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client:_ ~seq ~rsp ->
      Hashtbl.replace replies seq rsp);
  cluster.Rsmr_iface.Cluster.add_client c1;
  let incr = Counter.encode_command (Counter.Incr 1) in
  (* Submit, then force-retransmit the same sequence twice more. *)
  cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq:1 ~cmd:incr;
  ignore
    (Engine.schedule engine ~delay:0.7 (fun () ->
         cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq:1 ~cmd:incr));
  ignore
    (Engine.schedule engine ~delay:1.4 (fun () ->
         cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq:1 ~cmd:incr));
  Engine.run ~until:5.0 engine;
  cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq:2
    ~cmd:(Counter.encode_command Counter.Read);
  Engine.run ~until:10.0 engine;
  (match Hashtbl.find_opt replies 2 with
   | Some rsp ->
     let (Counter.Current v) = Counter.decode_response rsp in
     Alcotest.(check int) "retried increment applied exactly once" 1 v
   | None -> Alcotest.fail "no reply to read");
  (* And every replica's state agrees. *)
  List.iter
    (fun n ->
      match CtrService.app_state svc n with
      | Some st -> Alcotest.(check int) "replica state" 1 (Counter.value st)
      | None -> Alcotest.fail "replica has no state")
    [ 0; 1; 2 ]

let test_reconfigure_overlapping () =
  let h =
    kv_harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3 ] ~clients:[ c1 ] ()
  in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("stable", "yes"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  (* Swap replica 2 for replica 3. *)
  reconfigure h.cluster [ 0; 1; 3 ];
  run_until h ~deadline:15.0 (fun () -> KvService.current_epoch h.svc = 1);
  Alcotest.(check (list int)) "directory view" [ 0; 1; 3 ]
    (List.sort compare (KvService.current_members h.svc));
  (* Service still linear: old data readable, new writes work. *)
  submit_kv h ~client:c1 ~seq:2 (Kv.Get "stable");
  run_until h ~deadline:25.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  Alcotest.(check bool) "old data survives" true
    (reply_of h ~client:c1 ~seq:2 = Some (Kv.Value (Some "yes")));
  submit_kv h ~client:c1 ~seq:3 (Kv.Put ("post", "1"));
  run_until h ~deadline:30.0 (fun () -> has_reply h ~client:c1 ~seq:3);
  (* The incoming replica eventually holds the full state. *)
  run_until h ~deadline:40.0 (fun () ->
      match KvService.app_state h.svc 3 with
      | Some st -> Kv.find st "stable" = Some "yes" && Kv.find st "post" = Some "1"
      | None -> false)

let test_reconfigure_disjoint () =
  (* Full fleet replacement: {0,1,2} -> {3,4,5}, pure remote transfer. *)
  let h =
    kv_harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
      ~clients:[ c1 ] ()
  in
  for i = 1 to 10 do
    submit_kv h ~client:c1 ~seq:i (Kv.Put (Printf.sprintf "k%d" i, string_of_int i))
  done;
  run_until h ~deadline:10.0 (fun () -> has_reply h ~client:c1 ~seq:10);
  reconfigure h.cluster [ 3; 4; 5 ];
  run_until h ~deadline:30.0 (fun () -> KvService.current_epoch h.svc = 1);
  (* All data must be readable through the new configuration. *)
  submit_kv h ~client:c1 ~seq:11 (Kv.Get "k7");
  run_until h ~deadline:45.0 (fun () -> has_reply h ~client:c1 ~seq:11);
  Alcotest.(check bool) "data crossed the transfer" true
    (reply_of h ~client:c1 ~seq:11 = Some (Kv.Value (Some "7")));
  (* New members were populated by remote chunked transfer. *)
  Alcotest.(check bool) "remote transfers happened" true
    (Counters.get (KvService.counters h.svc) "transfers" >= 1);
  (* Old instances eventually retire. *)
  run_until h ~deadline:60.0 (fun () ->
      List.for_all (fun n -> KvService.live_instances h.svc n = 0) [ 0; 1; 2 ])

let test_commands_during_reconfig_not_lost () =
  (* Fire a burst of writes exactly around the reconfiguration; every one
     must eventually be acknowledged and visible exactly once. *)
  let h =
    kv_harness ~seed:11 ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
      ~clients:[ c1 ] ()
  in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("warm", "up"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  let t0 = Engine.now h.engine in
  (* Reconfig at t0+0.05; writes stream from t0 to t0+0.5 every 25 ms. *)
  ignore
    (Engine.schedule h.engine ~delay:0.05 (fun () ->
         reconfigure h.cluster [ 2; 3; 4 ]));
  for i = 0 to 19 do
    ignore
      (Engine.schedule h.engine
         ~delay:(float_of_int i *. 0.025)
         (fun () ->
           submit_kv h ~client:c1 ~seq:(2 + i)
             (Kv.Append ("acc", Printf.sprintf "[%d]" i))))
  done;
  ignore t0;
  run_until h ~deadline:40.0 (fun () ->
      let rec all i = i > 21 || (has_reply h ~client:c1 ~seq:i && all (i + 1)) in
      all 2);
  (* Exactly-once: the accumulator contains each marker exactly once, in
     sequence order (single client, one outstanding at a time is NOT
     guaranteed here — appends were fired concurrently — so just check
     multiplicity). *)
  submit_kv h ~client:c1 ~seq:30 (Kv.Get "acc");
  run_until h ~deadline:50.0 (fun () -> has_reply h ~client:c1 ~seq:30);
  match reply_of h ~client:c1 ~seq:30 with
  | Some (Kv.Value (Some acc)) ->
    for i = 0 to 19 do
      let marker = Printf.sprintf "[%d]" i in
      let count = ref 0 in
      let mlen = String.length marker in
      for off = 0 to String.length acc - mlen do
        if String.sub acc off mlen = marker then incr count
      done;
      Alcotest.(check int) (Printf.sprintf "marker %d applied exactly once" i) 1 !count
    done
  | _ -> Alcotest.fail "accumulator missing"

let test_chained_reconfigs_rolling_replace () =
  (* Replace one node at a time: {0,1,2} -> {1,2,3} -> {2,3,4} -> {3,4,5}. *)
  let h =
    kv_harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
      ~clients:[ c1 ] ()
  in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("genesis", "block"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  let steps = [ [ 1; 2; 3 ]; [ 2; 3; 4 ]; [ 3; 4; 5 ] ] in
  List.iteri
    (fun i members ->
      reconfigure h.cluster members;
      run_until h ~deadline:(60.0 +. (float_of_int i *. 30.0)) (fun () ->
          KvService.current_epoch h.svc = i + 1))
    steps;
  Alcotest.(check (list int)) "final membership" [ 3; 4; 5 ]
    (List.sort compare (KvService.current_members h.svc));
  submit_kv h ~client:c1 ~seq:2 (Kv.Get "genesis");
  run_until h ~deadline:150.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  Alcotest.(check bool) "state survived three transfers" true
    (reply_of h ~client:c1 ~seq:2 = Some (Kv.Value (Some "block")));
  Alcotest.(check int) "three wedges happened" 3
    (Counters.get (KvService.counters h.svc) "wedges"
     / List.length [ 0 ] (* each member wedges; counter counts per-host *)
     / 3)

let test_non_speculative_mode () =
  let options =
    {
      Options.default with
      Options.strategy =
        {
          Rsmr_iface.Reconfig_strategy.composed with
          Rsmr_iface.Reconfig_strategy.name = "composed-blocking";
          handoff = `Blocking;
        };
    }
  in
  let h =
    kv_harness ~options ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
      ~clients:[ c1 ] ()
  in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("a", "1"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  reconfigure h.cluster [ 3; 4; 5 ];
  run_until h ~deadline:60.0 (fun () -> KvService.current_epoch h.svc = 1);
  submit_kv h ~client:c1 ~seq:2 (Kv.Get "a");
  run_until h ~deadline:90.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  Alcotest.(check bool) "works without speculation" true
    (reply_of h ~client:c1 ~seq:2 = Some (Kv.Value (Some "1")))

let test_crash_old_leader_mid_reconfig () =
  (* Crash every old member shortly after the reconfig is submitted; the
     snapshot must still reach the new configuration from the survivors
     (we crash one node — the others can serve the fetch). *)
  let h =
    kv_harness ~seed:3 ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
      ~clients:[ c1 ] ()
  in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("x", "42"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  reconfigure h.cluster [ 3; 4; 5 ];
  (* Give the reconfig a moment to be decided, then crash node 0 (whatever
     its role: worst case it was the old leader serving the snapshot). *)
  ignore
    (Engine.schedule h.engine ~delay:0.3 (fun () ->
         crash h.cluster 0));
  run_until h ~deadline:90.0 (fun () -> KvService.current_epoch h.svc = 1);
  submit_kv h ~client:c1 ~seq:2 (Kv.Get "x");
  run_until h ~deadline:120.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  Alcotest.(check bool) "state survived crash during transfer" true
    (reply_of h ~client:c1 ~seq:2 = Some (Kv.Value (Some "42")))

let test_client_follows_reconfig_via_directory () =
  (* The client only ever knew the original members; after a disjoint
     reconfiguration its requests must still land (via redirects and/or
     directory lookups). *)
  let h =
    kv_harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
      ~clients:[ c1 ] ()
  in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("here", "before"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  reconfigure h.cluster [ 3; 4; 5 ];
  run_until h ~deadline:60.0 (fun () -> KvService.current_epoch h.svc = 1);
  (* Let retirement land so old nodes are truly out of the service path. *)
  run_until h ~deadline:90.0 (fun () ->
      List.for_all (fun n -> KvService.live_instances h.svc n = 0) [ 0; 1; 2 ]);
  submit_kv h ~client:c1 ~seq:2 (Kv.Get "here");
  run_until h ~deadline:120.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  Alcotest.(check bool) "client found the new configuration" true
    (reply_of h ~client:c1 ~seq:2 = Some (Kv.Value (Some "before")))

let test_lost_lookup_does_not_strand_client () =
  (* The client's only way to the new configuration is a directory
     lookup.  Its links to the old members and to the directory drop
     everything, so the lookup its third attempt sends is lost; the old
     members are then replaced and crashed, and the links heal at
     t = 10 s.  A lost lookup must not latch the endpoint for good: a
     later refresh point asks again and the request is answered. *)
  let h =
    kv_harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
      ~clients:[ c1 ] ()
  in
  let net = KvService.net h.svc in
  List.iter
    (fun dst -> Network.set_link_fault net ~src:c1 ~dst ~drop:1.0)
    [ 0; 1; 2; KvService.directory_id h.svc ];
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("k", "v"));
  Engine.run ~until:2.0 h.engine;
  reconfigure h.cluster [ 3; 4; 5 ];
  run_until h ~deadline:9.0 (fun () ->
      List.for_all (fun n -> KvService.live_instances h.svc n = 0) [ 0; 1; 2 ]);
  List.iter (crash h.cluster) [ 0; 1; 2 ];
  ignore
    (Engine.schedule h.engine ~delay:(10.0 -. Engine.now h.engine) (fun () ->
         Network.clear_link_faults net));
  run_until h ~deadline:60.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  Alcotest.(check bool) "answered by the new configuration" true
    (reply_of h ~client:c1 ~seq:1 = Some Kv.Ok)

let test_grow_and_shrink () =
  let h =
    kv_harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4 ] ~clients:[ c1 ]
      ()
  in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("n", "3"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  reconfigure h.cluster [ 0; 1; 2; 3; 4 ];
  run_until h ~deadline:30.0 (fun () -> KvService.current_epoch h.svc = 1);
  submit_kv h ~client:c1 ~seq:2 (Kv.Put ("n", "5"));
  run_until h ~deadline:40.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  reconfigure h.cluster [ 1; 3 ];
  run_until h ~deadline:70.0 (fun () -> KvService.current_epoch h.svc = 2);
  submit_kv h ~client:c1 ~seq:3 (Kv.Get "n");
  run_until h ~deadline:90.0 (fun () -> has_reply h ~client:c1 ~seq:3);
  Alcotest.(check bool) "grow then shrink keeps state" true
    (reply_of h ~client:c1 ~seq:3 = Some (Kv.Value (Some "5")))

let test_rapid_double_reconfigure () =
  (* Two reconfigurations submitted back-to-back: the second is ordered as
     a residual of the first epoch (or directly in the new one) and must
     still land, producing two distinct epochs. *)
  let h =
    kv_harness ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
      ~clients:[ c1 ] ()
  in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("a", "1"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  reconfigure h.cluster [ 1; 2; 3 ];
  ignore
    (Engine.schedule h.engine ~delay:0.01 (fun () ->
         reconfigure h.cluster [ 2; 3; 4 ]));
  run_until h ~deadline:90.0 (fun () -> KvService.current_epoch h.svc = 2);
  (* The two requests were pipelined, so either may be ordered first; the
     loser is deduplicated, never half-applied. *)
  let final = List.sort compare (KvService.current_members h.svc) in
  Alcotest.(check bool) "one of the two targets won" true
    (final = [ 2; 3; 4 ] || final = [ 1; 2; 3 ]);
  submit_kv h ~client:c1 ~seq:2 (Kv.Get "a");
  run_until h ~deadline:120.0 (fun () -> has_reply h ~client:c1 ~seq:2);
  Alcotest.(check bool) "state intact after chained reconfigs" true
    (reply_of h ~client:c1 ~seq:2 = Some (Kv.Value (Some "1")))

let test_duplicate_request_fast_path () =
  (* A retried request whose original already applied is answered from the
     session cache without being ordered again. *)
  let h = kv_harness ~members:[ 0; 1; 2 ] ~clients:[ c1 ] () in
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("k", "v"));
  run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  let applied_before = Counters.get (KvService.counters h.svc) "applied" in
  Hashtbl.remove h.replies (c1, 1);
  (* Re-submit the identical (client, seq). *)
  submit_kv h ~client:c1 ~seq:1 (Kv.Put ("k", "v"));
  run_until h ~deadline:10.0 (fun () -> has_reply h ~client:c1 ~seq:1);
  Alcotest.(check bool) "same response" true
    (reply_of h ~client:c1 ~seq:1 = Some Kv.Ok);
  Alcotest.(check int) "not re-applied" applied_before
    (Counters.get (KvService.counters h.svc) "applied")

let test_session_gc_bounds_snapshot () =
  (* A long single-client run must not grow the replicated session table:
     the piggybacked watermark trims it to the in-flight window. *)
  let h = kv_harness ~members:[ 0; 1; 2 ] ~clients:[ c1 ] () in
  let n = 300 in
  let submitted = ref 0 in
  let next () =
    if !submitted < n then begin
      incr submitted;
      submit_kv h ~client:c1 ~seq:!submitted (Kv.Put ("k", string_of_int !submitted))
    end
  in
  h.cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client ~seq ~rsp ->
      Hashtbl.replace h.replies (client, seq) rsp;
      next ());
  next ();
  run_until h ~deadline:60.0 (fun () ->
      has_reply h ~client:c1 ~seq:n);
  (* One command in flight at a time: the table should hold O(1) entries
     per client, not n. *)
  Alcotest.(check bool) "session table bounded" true
    (Counters.get (KvService.counters h.svc) "applied" >= n)

let test_deterministic_replay () =
  let run () =
    let h =
      kv_harness ~seed:42 ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3 ]
        ~clients:[ c1 ] ()
    in
    for i = 1 to 5 do
      submit_kv h ~client:c1 ~seq:i (Kv.Put (Printf.sprintf "k%d" i, "v"))
    done;
    ignore
      (Engine.schedule h.engine ~delay:0.4 (fun () ->
           reconfigure h.cluster [ 0; 1; 3 ]));
    Engine.run ~until:20.0 h.engine;
    ( Engine.events_executed h.engine,
      Counters.to_list (KvService.counters h.svc),
      Counters.to_list
        (Rsmr_obs.Registry.counters h.cluster.Rsmr_iface.Cluster.obs "net") )
  in
  let a = run () and b = run () in
  let ev_a, c_a, n_a = a and ev_b, c_b, n_b = b in
  Alcotest.(check int) "event counts equal" ev_a ev_b;
  Alcotest.(check (list (pair string int))) "protocol counters equal" c_a c_b;
  Alcotest.(check (list (pair string int))) "network counters equal" n_a n_b

module BankService = Rsmr_core.Service.Make (Rsmr_app.Bank)
module Bank = Rsmr_app.Bank

(* Property: money is conserved end-to-end across random reconfigurations,
   a crash, and message loss — transfers can be lost or retried but never
   partially applied or double-applied. *)
let prop_bank_conservation_across_faults =
  QCheck.Test.make ~name:"bank total conserved across reconfig+crash+loss"
    ~count:8
    QCheck.(triple small_int (float_range 0.3 1.5) (float_range 0.0 0.05))
    (fun (seed, reconfig_at, drop) ->
      let engine = Engine.create ~seed:(seed + 11) () in
      let svc =
        BankService.create ~engine ~drop ~members:[ 0; 1; 2 ]
          ~universe:[ 0; 1; 2; 3; 4; 5 ] ()
      in
      let cluster = BankService.cluster svc in
      cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client:_ ~seq:_ ~rsp:_ -> ());
      cluster.Rsmr_iface.Cluster.add_client c1;
      let submit seq cmd =
        cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq
          ~cmd:(Bank.encode_command cmd)
      in
      (* Open ten accounts of 100, then fire transfers around a reconfig
         and a crash. *)
      for i = 0 to 9 do
        submit (i + 1) (Bank.Open (Printf.sprintf "a%d" i, 100))
      done;
      for i = 0 to 29 do
        ignore
          (Engine.schedule engine
             ~delay:(0.2 +. (float_of_int i *. 0.06))
             (fun () ->
               submit (11 + i)
                 (Bank.Transfer
                    ( Printf.sprintf "a%d" (i mod 10),
                      Printf.sprintf "a%d" ((i + 3) mod 10),
                      7 ))))
      done;
      ignore
        (Engine.schedule engine ~delay:reconfig_at (fun () ->
             reconfigure cluster [ 3; 4; 5 ]));
      ignore
        (Engine.schedule engine ~delay:(reconfig_at +. 0.1) (fun () ->
             crash cluster (seed mod 3)));
      Engine.run ~until:120.0 engine;
      (* Every new member must converge to exactly the opened sum: transfers
         move money but never mint or burn it.  Old members may legitimately
         hold a frozen pre-wedge prefix in which only k of the 10 opens had
         applied — but that prefix must itself conserve (a multiple of 100,
         never distorted by a partial or double transfer). *)
      List.for_all
        (fun node ->
          match BankService.app_state svc node with
          | Some st -> Bank.total st = 1000
          | None -> false)
        [ 3; 4; 5 ]
      && List.for_all
           (fun node ->
             match BankService.app_state svc node with
             | Some st ->
               let total = Bank.total st in
               total mod 100 = 0 && total <= 1000
             | None -> true)
           [ 0; 1; 2 ])

(* Property: under randomized reconfiguration timing, increments are applied
   exactly once each. *)
let prop_exactly_once_across_reconfig =
  QCheck.Test.make ~name:"increments exactly once across random reconfig"
    ~count:10
    QCheck.(pair small_int (float_range 0.1 1.5))
    (fun (seed, reconfig_at) ->
      let engine = Engine.create ~seed:(seed + 1) () in
      let svc =
        CtrService.create ~engine ~members:[ 0; 1; 2 ]
          ~universe:[ 0; 1; 2; 3; 4; 5 ] ()
      in
      let cluster = CtrService.cluster svc in
      let replies = Hashtbl.create 32 in
      cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client:_ ~seq ~rsp ->
          Hashtbl.replace replies seq rsp);
      cluster.Rsmr_iface.Cluster.add_client c1;
      let n = 12 in
      for i = 1 to n do
        ignore
          (Engine.schedule engine
             ~delay:(0.2 +. (float_of_int i *. 0.12))
             (fun () ->
               cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq:i
                 ~cmd:(Counter.encode_command (Counter.Incr 1))))
      done;
      ignore
        (Engine.schedule engine ~delay:reconfig_at (fun () ->
             reconfigure cluster [ 3; 4; 5 ]));
      Engine.run ~until:120.0 engine;
      let all_acked = List.for_all (fun i -> Hashtbl.mem replies i) (List.init n (fun i -> i + 1)) in
      let state_ok =
        List.exists
          (fun node ->
            match CtrService.app_state svc node with
            | Some st -> Counter.value st = n
            | None -> false)
          [ 3; 4; 5 ]
      in
      all_acked && state_ok)

(* --- shared directory-semantics properties --- *)

(* One property suite, two implementations: the in-process oracle
   (Rsmr_core.Directory) and the replicated application
   (Rsmr_app.Dir_app) must agree on the monotone-epoch contract —
   whichever one a deployment consults, the answers are the same. *)
module type DIR_SEM = sig
  val impl : string
  type t
  val create : unit -> t
  val update :
    t -> epoch:int -> members:int list -> leader:int option -> unit
  val view : t -> int * int list * int option
end

module Oracle_sem : DIR_SEM = struct
  let impl = "oracle"
  type t = Rsmr_core.Directory.t
  let create () = Rsmr_core.Directory.create ()
  let update t ~epoch ~members ~leader =
    Rsmr_core.Directory.update t ~epoch ~members ~leader
  let view t =
    Rsmr_core.Directory.
      (epoch t, members t, leader t)
end

module Dir_app_sem : DIR_SEM = struct
  let impl = "dir_app"
  module D = Rsmr_app.Dir_app
  type t = D.t ref
  let create () = ref (D.init ())
  let update t ~epoch ~members ~leader =
    (* Through the full wire codec, like a real hosted command. *)
    let cmd =
      D.decode_command
        (D.encode_command (D.Update { name = "svc"; epoch; members; leader }))
    in
    let st, rsp = D.apply !t cmd in
    assert (D.equal_response rsp D.Acked);
    t := st
  let view t =
    (* No entry = the oracle's virgin state (epoch -1, awaiting any
       first update). *)
    match D.find !t "svc" with
    | None -> (-1, [], None)
    | Some e -> (e.D.epoch, e.D.members, e.D.leader)
end

let gen_dir_updates =
  QCheck.(
    small_list
      (triple (int_bound 8)
         (list_of_size Gen.(int_range 1 4) (int_bound 9))
         (option (int_bound 9))))

module Dir_props (S : DIR_SEM) = struct
  (* Reference fold of the contract, stated once. *)
  let reference updates =
    List.fold_left
      (fun (e0, m0, l0) (epoch, members, leader) ->
        if epoch > e0 then (epoch, members, leader)
        else if epoch = e0 then
          (e0, m0, match leader with Some _ -> leader | None -> l0)
        else (e0, m0, l0))
      (-1, [], None) updates

  let prop_matches_reference =
    QCheck.Test.make
      ~name:(S.impl ^ ": update fold matches the monotone-epoch contract")
      ~count:200 gen_dir_updates
      (fun updates ->
        let t = S.create () in
        List.iter
          (fun (epoch, members, leader) -> S.update t ~epoch ~members ~leader)
          updates;
        S.view t = reference updates)

  let prop_epoch_monotone =
    QCheck.Test.make
      ~name:(S.impl ^ ": exposed epoch never decreases")
      ~count:200 gen_dir_updates
      (fun updates ->
        let t = S.create () in
        List.for_all
          (fun (epoch, members, leader) ->
            let e0, _, _ = S.view t in
            S.update t ~epoch ~members ~leader;
            let e1, _, _ = S.view t in
            e1 >= e0)
          updates)

  let prop_same_epoch_refreshes_leader =
    QCheck.Test.make
      ~name:(S.impl ^ ": same-epoch update refreshes leader, keeps members")
      ~count:200
      QCheck.(pair gen_dir_updates (int_bound 9))
      (fun (updates, l) ->
        let t = S.create () in
        (* Seed a real entry first: the two implementations legitimately
           differ on a same-epoch update against the virgin state (the
           oracle refreshes its epoch -1 placeholder; the map creates an
           entry) — and epoch -1 never appears on the wire. *)
        List.iter
          (fun (epoch, members, leader) -> S.update t ~epoch ~members ~leader)
          ((0, [ 1; 2; 3 ], None) :: updates);
        let e0, m0, _ = S.view t in
        S.update t ~epoch:e0 ~members:[ 99 ] ~leader:(Some l);
        S.view t = (e0, m0, Some l))

  let prop_stale_update_ignored =
    QCheck.Test.make
      ~name:(S.impl ^ ": stale update is a no-op (replay idempotence)")
      ~count:200
      QCheck.(pair gen_dir_updates gen_dir_updates)
      (fun (updates, stale) ->
        let t = S.create () in
        List.iter
          (fun (epoch, members, leader) -> S.update t ~epoch ~members ~leader)
          updates;
        let before = S.view t in
        let e0, _, _ = before in
        List.iter
          (fun (epoch, members, leader) ->
            if epoch < e0 then S.update t ~epoch ~members ~leader)
          stale;
        S.view t = before)

  let all =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_matches_reference;
        prop_epoch_monotone;
        prop_same_epoch_refreshes_leader;
        prop_stale_update_ignored;
      ]
end

module Oracle_props = Dir_props (Oracle_sem)
module Dir_app_props = Dir_props (Dir_app_sem)

(* --- the epoch audit over hand-built per-node records --- *)

let stat ?wedged_at ?(digest = 7L) epoch applied_hi =
  {
    Rsmr_core.Service.es_epoch = epoch;
    es_activated = true;
    es_retired = false;
    es_wedged_at = wedged_at;
    es_applied_hi = applied_hi;
    es_digest = digest;
  }

let test_epoch_audit () =
  let audit = Rsmr_core.Service.epoch_audit in
  let check name want stats =
    Alcotest.(check (option string)) name want (audit stats)
  in
  check "clean" None
    [
      (0, [ stat ~wedged_at:5 0 5; stat 1 3 ]);
      (1, [ stat ~wedged_at:5 0 4 ~digest:9L; stat 1 3 ]);
      (2, []);
    ];
  check "applied past the wedge"
    (Some "epoch-prefix: node 1 epoch 0 applied index 6 past wedge 5")
    [ (0, [ stat ~wedged_at:5 0 5 ]); (1, [ stat ~wedged_at:5 0 6 ]) ];
  check "wedge disagreement"
    (Some "wedge-agreement: epoch 0 wedged at 5 on node 0 but at 4 on node 2")
    [
      (0, [ stat ~wedged_at:5 0 5 ]);
      (1, [ stat 0 3 ]);
      (2, [ stat ~wedged_at:4 0 4 ]);
    ];
  check "digest disagreement"
    (Some
       "committed-prefix: node 1 epoch 1 disagrees on the prefix up to index \
        3 (digest 0000000000000008, witnessed 0000000000000007)")
    [ (0, [ stat 1 3 ]); (1, [ stat 1 3 ~digest:8L ]) ];
  check "nothing applied is never compared" None
    [ (0, [ stat 1 (-1) ]); (1, [ stat 1 (-1) ~digest:8L ]) ];
  check "past the wedge is reported before a digest disagreement"
    (Some "epoch-prefix: node 1 epoch 0 applied index 6 past wedge 5")
    [
      (0, [ stat 1 3 ]);
      (1, [ stat 1 3 ~digest:8L; stat ~wedged_at:5 0 6 ]);
    ]

(* Stray chunks.  Donors send chunks only to members of the committed
   configuration, so a chunk for an epoch with no instance starts that
   member's transfer record and nothing else; a chunk for an epoch that
   has activated or retired is ignored.  The ignored cases are checked
   against a twin run that receives a no-op message instead on the same
   self-link (a self-send draws no latency, so the two runs stay in
   step): their canonical states must match.  The started record is
   checked through what it must not do: host a new epoch, run a replica
   or ask anyone, eight fetch periods later.  One such chunk claims a
   [total] of 2^62 - 1 chunks, which must size nothing: neither the
   record nor the canonical state, which grows by a few bytes. *)
let test_stray_chunks () =
  let options =
    { Options.default with
      Options.strategy = Rsmr_iface.Reconfig_strategy.matchmaker }
  in
  let run inject =
    let h =
      kv_harness ~options ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ]
        ~clients:[ c1 ] ()
    in
    submit_kv h ~client:c1 ~seq:1 (Kv.Put ("k", "v"));
    run_until h ~deadline:5.0 (fun () -> has_reply h ~client:c1 ~seq:1);
    reconfigure h.cluster [ 1; 2; 3 ];
    run_until h ~deadline:10.0 (fun () ->
        List.exists
          (fun (es : Rsmr_core.Service.epoch_stat) ->
            es.es_epoch = 0 && es.es_retired)
          (KvService.epoch_stats h.svc 1));
    inject h;
    Engine.run ~until:(Engine.now h.engine +. (8.0 *. 0.25)) h.engine;
    h
  in
  let self_send wire h =
    Network.send (KvService.net h.svc) ~src:1 ~dst:1 wire
  in
  let chunk epoch =
    Wire.State_chunk { epoch; index = 0; total = 1; data = "x" }
  in
  let baseline =
    KvService.canonical_state (run (self_send (Wire.Retire { epoch = 0 }))).svc
  in
  List.iter
    (fun (what, epoch) ->
      Alcotest.(check bool)
        (Printf.sprintf "a chunk for %s epoch %d is ignored" what epoch)
        true
        (String.equal baseline
           (KvService.canonical_state (run (self_send (chunk epoch))).svc)))
    [ ("the retired", 0); ("the activated", 1) ];
  List.iter
    (fun (dst, epoch, total, host_epoch, live) ->
      let h =
        run (fun h ->
            Network.send (KvService.net h.svc) ~src:1 ~dst
              (Wire.decode
                 (Wire.encode
                    (Wire.State_chunk { epoch; index = 0; total; data = "x" }))))
      in
      let fetches =
        Counters.get (Network.counters (KvService.net h.svc)) "sent.fetch_state"
      in
      let on = Printf.sprintf "node %d, chunk %d of %d" dst epoch total in
      Alcotest.(check (option int)) (on ^ ": host epoch unchanged") host_epoch
        (KvService.host_epoch h.svc dst);
      Alcotest.(check int) (on ^ ": replicas unchanged") live
        (KvService.live_instances h.svc dst);
      Alcotest.(check int) (on ^ ": nobody asked for a snapshot") 0 fetches;
      Alcotest.(check int) (on ^ ": the committed epoch is unchanged") 1
        (KvService.current_epoch h.svc);
      let grown =
        String.length (KvService.canonical_state h.svc) - String.length baseline
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: the canonical state grows by %d <= 64 bytes" on
           grown)
        true (grown <= 64))
    [ (4, 2, 2, None, 0); (1, 5, (1 lsl 62) - 1, Some 1, 1) ]

(* --- the epoch rules, driven through Epoch.step with no engine ---

   Each case feeds one host's epoch table a script of inputs and reads
   the effects of every step.  The engine-level cases above and below
   show the rules at work; these isolate the rules no run separates.
   Every host boots with epoch 0 of {0,1,2}; the directory is node 9. *)

module Epoch = Rsmr_core.Epoch

let drain_barrier = Rsmr_core.Envelope.encode Rsmr_core.Envelope.Drain

let show_effect =
  let sp = Printf.sprintf in
  let by = function Some l -> sp " by %d" l | None -> "" in
  let timer = function
    | Epoch.Refetch -> "fetch" | Epoch.Flush -> "flush" | Epoch.Drain -> "drain"
    | Epoch.Rebootstrap -> "rebootstrap" | Epoch.Announce -> "announce"
  in
  let values vs =
    String.concat "," (List.map (fun v -> if v = drain_barrier then "drain" else v) vs)
  in
  function
  | Epoch.Send { dst; msg = Wire.Fetch_state { epoch } } -> sp "fetch %d from %d" epoch dst
  | Epoch.Send { dst; msg = Wire.Bootstrap { epoch; _ } } -> sp "bootstrap %d to %d" epoch dst
  | Epoch.Send { dst; msg = Wire.Retire { epoch } } -> sp "retire %d to %d" epoch dst
  | Epoch.Send { dst = 9; msg = Wire.Dir_update { epoch; leader; _ } } ->
    sp "dir %d%s" epoch (by leader)
  | Epoch.Send { dst; msg } -> sp "send %s to %d" (Wire.tag msg) dst
  | Epoch.Send_snapshot { dst; epoch; _ } -> sp "snapshot %d to %d" epoch dst
  | Epoch.Forward { dst; epoch; values = vs } -> sp "forward %d to %d %s" epoch dst (values vs)
  | Epoch.Submit { epoch; values = vs } -> sp "submit %d %s" epoch (values vs)
  | Epoch.Arm { timer = k; epoch; _ } -> sp "arm %s %d" (timer k) epoch
  | Epoch.Cancel { timer = k; epoch } -> sp "cancel %s %d" (timer k) epoch
  | Epoch.Create { epoch; _ } -> sp "create %d" epoch
  | Epoch.Start { epoch; early } ->
    sp "start %d%s" epoch
      (String.concat "" (List.map (fun (src, d) -> sp " %d:%s" src d) early))
  | Epoch.Halt epoch -> sp "halt %d" epoch
  | Epoch.Wedged { epoch; idx; _ } -> sp "wedged %d at %d" epoch idx
  | Epoch.Resubmitted -> "resubmit"
  | Epoch.Install { epoch; chunks } -> sp "install %d %S" epoch (String.concat "" chunks)
  | Epoch.Activated { epoch; local } -> sp "activate %d%s" epoch (if local then " local" else "")
  | Epoch.Replay { epoch; decided } ->
    sp "replay %d %s" epoch
      (String.concat "," (List.map (fun (i, v) -> sp "%d:%s" i v) decided))
  | Epoch.Poll epoch -> sp "poll %d" epoch
  | Epoch.Publish { epoch; leader; _ } -> sp "publish %d%s" epoch (by leader)

(* Run [script], a list of (input, expected effects), from a fresh host;
   return the last value. *)
let epoch_script ?(strategy = Rsmr_iface.Reconfig_strategy.composed) ~me script =
  fst
    (List.fold_left
       (fun (t, n) (input, expected) ->
         let t, effects = Epoch.step t input in
         Alcotest.(check (list string))
           (Printf.sprintf "host %d, step %d" me n)
           expected
           (List.map show_effect effects);
         (t, n + 1))
       (Epoch.create ~me ~dir:9 ~strategy ~members:[ 0; 1; 2 ], 1)
       script)

let pull = Rsmr_iface.Reconfig_strategy.composed
let push = Rsmr_iface.Reconfig_strategy.matchmaker
let blocking = Rsmr_iface.Reconfig_strategy.stopworld

let bootstrap ?(members = [ 1; 2; 3 ]) ?(prev_members = [ 0; 1; 2 ]) epoch =
  Epoch.Bootstrap { epoch; members; prev_members }

let chunk epoch index total data = Epoch.Chunk { epoch; index; total; data }

let wedge ?(leader = false) ?(members = [ 1; 2; 3 ]) idx =
  Epoch.Wedge
    { epoch = 0; idx; members; leader;
      snapshot = { Snapshot.app = "s"; sessions = "" } }

let fired ?(leader = false) timer epoch = Epoch.Fired { timer; epoch; leader }

(* The wedge of epoch 0 into {1,2,3} on a host that leaves, before its
   own effects. *)
let wedge_0 = [ "wedged 0 at 5"; "bootstrap 1 to 1"; "bootstrap 1 to 2"; "bootstrap 1 to 3"; "dir 1" ]
let wedge_tail = [ "arm rebootstrap 0"; "publish 1" ]

(* ... and on node 1 or 2, which stays and hands its state over. *)
let wedge_stay me =
  [ "wedged 0 at 5" ]
  @ List.filter_map
      (fun m -> if m = me then None else Some (Printf.sprintf "bootstrap 1 to %d" m))
      [ 1; 2; 3 ]
  @ [ "dir 1" ] @ wedge_tail

(* Donors are the previous members but the joiner, the new
   configuration's boot leader last; the first one asked is staggered by
   the joiner's id. *)
let test_epoch_donor_order () =
  List.iter
    (fun (me, members, prev_members, expected) ->
      Alcotest.(check (list int))
        (Printf.sprintf "donors of %d" me)
        expected
        (Epoch.donor_order ~me ~members ~prev_members))
    [
      (3, [ 1; 2; 3 ], [ 0; 1; 2 ], [ 0; 2; 1 ]);
      (5, [ 0; 4; 5 ], [ 3; 0; 2 ], [ 3; 2; 0 ]);
      (1, [ 1; 2; 3 ], [ 0; 1; 2 ], [ 0; 2 ]);
      (4, [ 4; 5 ], [ 0; 1 ], [ 0; 1 ]);
    ];
  List.iter
    (fun (me, first, second) ->
      ignore
        (epoch_script ~me
           [
             ( bootstrap ~members:[ 1; 2; me ] 1,
               [ "create 1"; "start 1"; Printf.sprintf "fetch 1 from %d" first; "arm fetch 1" ] );
             (fired Epoch.Refetch 1, [ Printf.sprintf "fetch 1 from %d" second; "arm fetch 1" ]);
           ]))
    [ (3, 0, 2); (4, 2, 1); (5, 1, 0) ]

(* Under push the joiner asks nobody: its first-choice donor, and only
   that one, sends the snapshot at the wedge, after the Bootstraps.  The
   joiner asks the next donor once the push stalls for a whole
   period. *)
let test_epoch_push () =
  ignore (epoch_script ~strategy:push ~me:0 [ (wedge 5, wedge_0 @ [ "snapshot 1 to 3" ] @ wedge_tail) ]);
  ignore
    (epoch_script ~strategy:push ~me:2
       [ (wedge 5,
          wedge_stay 2
          @ [ "create 1"; "start 1"; "arm fetch 1"; "activate 1 local"; "cancel fetch 1"; "poll 1" ]) ]);
  ignore (epoch_script ~strategy:pull ~me:0 [ (wedge 5, wedge_0 @ wedge_tail) ]);
  ignore
    (epoch_script ~strategy:push ~me:3
       [
         (bootstrap 1, [ "create 1"; "start 1"; "arm fetch 1" ]);
         (chunk 1 0 2 "a", [ "arm fetch 1" ]);
         (fired Epoch.Refetch 1, [ "fetch 1 from 2"; "arm fetch 1" ]);
       ]);
  (* A fetch parked before the wedge is served, not pushed, and before
     the Bootstraps. *)
  ignore
    (epoch_script ~strategy:push ~me:0
       [
         (Epoch.Fetch { src = 3; epoch = 1 }, []);
         (Epoch.Fetch { src = 5; epoch = 1 }, []);
         (wedge 5, ("wedged 0 at 5" :: "snapshot 1 to 3" :: List.tl wedge_0) @ wedge_tail);
       ])

(* A member of both configurations waits for its own wedge while its
   previous instance runs, and fetches at once, pushed or not, when that
   instance retires unwedged. *)
let test_epoch_continuing_member () =
  List.iter
    (fun strategy ->
      ignore
        (epoch_script ~strategy ~me:1
           [
             (bootstrap 1, [ "create 1"; "start 1"; "arm fetch 1" ]);
             (Epoch.Retire 1, [ "halt 0"; "fetch 1 from 2"; "arm fetch 1" ]);
           ]);
      ignore
        (epoch_script ~strategy ~me:1
           [
             (bootstrap 1, [ "create 1"; "start 1"; "arm fetch 1" ]);
             (wedge 5, wedge_stay 1 @ [ "activate 1 local"; "cancel fetch 1"; "poll 1" ]);
             (Epoch.Drained { epoch = 0; leader = false }, [ "halt 0" ]);
           ]))
    [ pull; push ];
  (* Its own wedge's state wins over chunks it never asked for. *)
  ignore
    (epoch_script ~me:1
       [
         (chunk 1 0 1 "x", []);
         (wedge 5, wedge_stay 1 @ [ "create 1"; "start 1"; "activate 1 local"; "cancel fetch 1"; "poll 1" ]);
       ])

(* Every chunk of a moving transfer re-arms the timer, a repeated one
   included, and none asks another donor; the last one installs.  Once
   activated, the epoch takes no chunk. *)
let test_epoch_moving () =
  ignore
    (epoch_script ~me:3
       [
         (bootstrap 1, [ "create 1"; "start 1"; "fetch 1 from 0"; "arm fetch 1" ]);
         (chunk 1 0 3 "a", [ "arm fetch 1" ]);
         (chunk 1 0 3 "a", [ "arm fetch 1" ]);
         (chunk 1 2 3 "c", [ "arm fetch 1" ]);
         (chunk 1 1 3 "b", [ "arm fetch 1"; {|install 1 "abc"|} ]);
         (Epoch.Installed 1, [ "activate 1"; "cancel fetch 1"; "poll 1" ]);
         (chunk 1 0 3 "a", []);
       ])

(* Chunks that do not decode are dropped, all of them: a new chunk at a
   dropped one's index is taken.  The joiner waits one [fetch_timeout]
   for more, as after any chunk, and then asks the next donor. *)
let test_epoch_rejected () =
  ignore
    (epoch_script ~me:3
       [
         (bootstrap 1, [ "create 1"; "start 1"; "fetch 1 from 0"; "arm fetch 1" ]);
         (chunk 1 0 1 "\xff", [ "arm fetch 1"; {|install 1 "\255"|} ]);
         (Epoch.Rejected 1, [ "arm fetch 1" ]);
         (fired Epoch.Refetch 1, [ "fetch 1 from 2"; "arm fetch 1" ]);
         (chunk 1 0 1 "s", [ "arm fetch 1"; {|install 1 "s"|} ]);
         (Epoch.Installed 1, [ "activate 1"; "cancel fetch 1"; "poll 1" ]);
         (Epoch.Rejected 1, []);
       ])

(* An epoch is created once: a Bootstrap of a hosted or retired epoch
   does nothing, and neither does one with no members. *)
let test_epoch_bootstrap_once () =
  ignore
    (epoch_script ~me:1
       [
         (bootstrap ~members:[ 0; 1; 2 ] 0, []);
         (bootstrap ~members:[] 1, []);
         (Epoch.Retire 1, [ "halt 0" ]);
         (bootstrap ~members:[ 0; 1; 2 ] 0, []);
         (Epoch.Retire 1, []);
       ])

(* First wedge wins: a second decided Reconfig leaves it in place. *)
let test_epoch_first_wedge () =
  let t =
    epoch_script ~me:0
      [ (wedge 5, wedge_0 @ wedge_tail); (wedge ~members:[ 4; 5; 6 ] 7, []) ]
  in
  Alcotest.(check (option int)) "wedged at the first" (Some 5) (Epoch.wedged_at t 0);
  Alcotest.(check (pair int (list int))) "the first's members are the latest"
    (1, [ 1; 2; 3 ]) (Epoch.latest t)

(* Only the leader orders the drain barrier, from a fresh step and on
   every Bootstrap round while it leads, and only the leader sends
   Retire once it is decided. *)
let test_epoch_drain () =
  ignore
    (epoch_script ~me:0
       [
         (wedge ~leader:true 5, wedge_0 @ [ "arm drain 0" ] @ wedge_tail);
         (fired ~leader:true Epoch.Drain 0, [ "submit 0 drain" ]);
         ( fired ~leader:true Epoch.Rebootstrap 0,
           List.tl wedge_0 @ [ "submit 0 drain"; "arm rebootstrap 0" ] );
         (fired Epoch.Rebootstrap 0, List.tl wedge_0 @ [ "arm rebootstrap 0" ]);
         ( Epoch.Drained { epoch = 0; leader = true },
           [ "retire 1 to 1"; "retire 1 to 2"; "halt 0" ] );
         (fired ~leader:true Epoch.Drain 0, []);
       ]);
  ignore
    (epoch_script ~me:1
       [
         (wedge ~members:[ 0; 1; 2 ] 5, [ "wedged 0 at 5"; "bootstrap 1 to 0"; "bootstrap 1 to 2"; "dir 1" ] @ wedge_tail
            @ [ "create 1"; "start 1"; "arm fetch 1"; "activate 1 local"; "cancel fetch 1"; "poll 1" ]);
         (fired Epoch.Drain 0, []);
         (Epoch.Drained { epoch = 0; leader = false }, [ "halt 0" ]);
       ]);
  (* The Bootstrap rounds stop after 40, retired or not. *)
  let t = epoch_script ~me:0 [ (wedge 5, wedge_0 @ wedge_tail); (Epoch.Retire 1, [ "halt 0" ]) ] in
  let rounds = ref 0 in
  let rec go t =
    match Epoch.step t (fired Epoch.Rebootstrap 0) with
    | t, [] -> ignore t
    | t, _ -> incr rounds; go t
  in
  go t;
  Alcotest.(check int) "Bootstrap rounds" 40 !rounds

(* Only the old instance's leader re-submits a residual, under
   [Resubmit]; the residuals of one step go as one batch into the next
   instance, or, with none here, to the next configuration's boot
   leader.  Under [Client_retry] nobody re-submits. *)
let test_epoch_residuals () =
  let residual ?(leader = true) value = Epoch.Residual { epoch = 0; value; leader } in
  ignore
    (epoch_script ~me:0
       [
         (wedge 5, wedge_0 @ wedge_tail);
         (residual ~leader:false "r0", []);
         (residual "r1", [ "resubmit"; "arm flush 0" ]);
         (residual "r2", [ "resubmit" ]);
         (fired Epoch.Flush 0, [ "forward 1 to 1 r1,r2" ]);
         (fired Epoch.Flush 0, []);
       ]);
  ignore
    (epoch_script ~me:1
       [
         (wedge 5, wedge_stay 1 @ [ "create 1"; "start 1"; "arm fetch 1"; "activate 1 local"; "cancel fetch 1"; "poll 1" ]);
         (residual "r1", [ "resubmit"; "arm flush 0" ]);
         (fired Epoch.Flush 0, [ "submit 1 r1" ]);
       ]);
  ignore
    (epoch_script ~strategy:blocking ~me:0
       [ (wedge 5, wedge_0 @ wedge_tail); (residual "r1", []) ])

(* [Retire e] retires every live epoch below [e], in order; a next
   epoch left without its local handoff fetches. *)
let test_epoch_retire_below () =
  let t =
    epoch_script ~me:1
      [
        (bootstrap 1, [ "create 1"; "start 1"; "arm fetch 1" ]);
        (bootstrap ~prev_members:[ 1; 2; 3 ] 2, [ "create 2"; "start 2"; "arm fetch 2" ]);
        ( Epoch.Retire 2,
          [ "halt 0"; "fetch 1 from 2"; "arm fetch 1"; "halt 1"; "cancel fetch 1";
            "fetch 2 from 3"; "arm fetch 2" ] );
      ]
  in
  Alcotest.(check (list (pair int bool))) "epochs and their retirement"
    [ (0, true); (1, true); (2, false) ]
    (List.rev (Epoch.fold (fun e i acc -> (e, i.Epoch.retired) :: acc) t []))

(* What a speculative instance decides before it activates replays in
   index order on activation, and a blocking one's early block messages
   go to its replica when it starts. *)
let test_epoch_speculative_buffer () =
  ignore
    (epoch_script ~me:3
       [
         (bootstrap 1, [ "create 1"; "start 1"; "fetch 1 from 0"; "arm fetch 1" ]);
         (Epoch.Decided { epoch = 1; idx = 7; value = "b" }, []);
         (Epoch.Decided { epoch = 1; idx = 5; value = "a" }, []);
         (chunk 1 0 1 "s", [ "arm fetch 1"; {|install 1 "s"|} ]);
         (Epoch.Installed 1, [ "activate 1"; "cancel fetch 1"; "replay 1 5:a,7:b"; "poll 1" ]);
         (Epoch.Decided { epoch = 1; idx = 8; value = "c" }, []);
       ]);
  ignore
    (epoch_script ~strategy:blocking ~me:3
       [
         (bootstrap 1, [ "create 1"; "fetch 1 from 0"; "arm fetch 1" ]);
         (Epoch.Early { epoch = 1; src = 2; data = "m" }, []);
         (Epoch.Early { epoch = 1; src = 1; data = "n" }, []);
         (chunk 1 0 1 "s", [ "arm fetch 1"; {|install 1 "s"|} ]);
         (Epoch.Installed 1, [ "activate 1"; "cancel fetch 1"; "start 1 2:m 1:n"; "poll 1" ]);
         (Epoch.Early { epoch = 1; src = 2; data = "o" }, []);
       ])

(* The announce fires once, only when the epoch is activated and the
   host leads it; until then the poll re-arms. *)
let test_epoch_announce () =
  ignore
    (epoch_script ~me:3
       [
         (bootstrap 1, [ "create 1"; "start 1"; "fetch 1 from 0"; "arm fetch 1" ]);
         (fired ~leader:true Epoch.Announce 1, [ "arm announce 1" ]);
         (chunk 1 0 1 "s", [ "arm fetch 1"; {|install 1 "s"|} ]);
         (Epoch.Installed 1, [ "activate 1"; "cancel fetch 1"; "poll 1" ]);
         (fired Epoch.Announce 1, [ "arm announce 1" ]);
         (fired ~leader:true Epoch.Announce 1, [ "dir 1 by 3"; "publish 1 by 3" ]);
         (fired ~leader:true Epoch.Announce 1, []);
       ])

(* The reads a decided command makes allocate nothing, for a live, a
   wedged and an unknown epoch alike. *)
let test_epoch_reads () =
  let t = epoch_script ~me:1 [ (wedge 5, wedge_stay 1 @ [ "create 1"; "start 1"; "arm fetch 1"; "activate 1 local"; "cancel fetch 1"; "poll 1" ]) ] in
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    for e = 0 to 2 do
      ignore (Sys.opaque_identity (Epoch.activated t e));
      ignore (Sys.opaque_identity (Epoch.wedged_at t e))
    done
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words >= 1. then Alcotest.failf "the reads allocate %.2f words per round" words

(* --- an old instance halts only once drained ---

   Rolling single-member reconfigurations under closed-loop load, over
   both blocks.  When the new instance has a leader the moment it is
   created, the handoff can finish while the old leader still has
   commands in flight past the wedge; halting the old instance then would
   strand them, and their clients would wait out the 0.5 s request
   timeout.  So: every request is answered, no client ever retries, and
   each host ends with at most one running instance.

   A retired epoch leaves only its audit record and, for a while, the
   snapshot it donated, so what the service holds stays within a small
   multiple of one application snapshot however many changes ran.  A
   late [Bootstrap] or snapshot chunk for a retired epoch re-creates
   nothing. *)

module Rolling (S : Rsmr_core.Service.S with type app_state = Kv.t) = struct
  let run ~strategy ~seed ~changes =
    let engine = Engine.create ~seed () in
    let universe = [ 0; 1; 2; 3; 4; 5 ] in
    let svc =
      S.create ~engine ~latency:Rsmr_net.Latency.lan ~bandwidth:2.5e7 ~universe
        ~options:{ Options.default with Options.strategy }
        ~members:[ 0; 1; 2 ] ()
    in
    let cluster = S.cluster svc in
    let retries = ref 0 in
    Rsmr_sim.Trace.subscribe (Rsmr_obs.Registry.bus (S.obs svc)) (fun ev ->
        if ev.Rsmr_sim.Trace.topic = `Lifecycle && ev.Rsmr_sim.Trace.message = "retry"
        then incr retries);
    Rsmr_workload.Driver.preload ~cluster ~client:99
      ~commands:
        (Rsmr_workload.Kv_gen.preload_commands ~n_keys:1_000 ~value_size:100)
      ~deadline:30.0 ();
    let start = Engine.now engine +. 0.5 in
    let gen =
      Rsmr_workload.Kv_gen.create ~rng:(Rsmr_sim.Rng.split (Engine.rng engine))
        ~keys:(Rsmr_workload.Keys.uniform ~n:1_000) ~read_ratio:0.8
        ~value_size:100 ()
    in
    let stats =
      Rsmr_workload.Driver.run_closed ~cluster ~n_clients:3
        ~first_client_id:100 ~window:4
        ~gen:(fun ~client:_ ~seq:_ -> Rsmr_workload.Kv_gen.next gen)
        ~start ~duration:(float_of_int (changes + 1)) ()
    in
    Rsmr_workload.Schedule.periodic_reconfigure cluster ~universe ~size:3
      ~start:(start +. 1.0) ~period:1.0 ~count:changes;
    Engine.run engine ~until:(start +. float_of_int changes +. 4.0);
    let label what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check int) (label "reconfigurations") changes (S.current_epoch svc);
    Alcotest.(check int) (label "every request answered")
      stats.Rsmr_workload.Driver.submitted stats.Rsmr_workload.Driver.completed;
    Alcotest.(check int) (label "client retries") 0 !retries;
    List.iter
      (fun n ->
        Alcotest.(check bool)
          (label (Printf.sprintf "node %d runs at most one instance" n))
          true
          (S.live_instances svc n <= 1))
      universe;
    let app =
      match S.app_state svc (List.hd (S.current_members svc)) with
      | Some app -> String.length (Kv.snapshot app)
      | None -> Alcotest.failf "seed %d: a current member holds no state" seed
    in
    Alcotest.(check bool)
      (label "retained state is at most 30 app snapshots")
      true
      (String.length (S.canonical_state svc) <= 30 * app);
    let retired n =
      List.exists
        (fun (es : Rsmr_core.Service.epoch_stat) ->
          es.es_epoch = 0 && es.es_retired)
        (S.epoch_stats svc n)
    in
    match List.find_opt retired universe with
    | None -> Alcotest.failf "seed %d: no host retired epoch 0" seed
    | Some n ->
      let before = (S.epoch_stats svc n, S.live_instances svc n) in
      let src = if n = 0 then 1 else 0 in
      List.iter
        (fun wire -> Network.send (S.net svc) ~src ~dst:n wire)
        [
          Wire.Bootstrap
            { epoch = 0; members = [ 0; 1; 2 ]; prev_epoch = 0; prev_members = [] };
          Wire.State_chunk { epoch = 0; index = 0; total = 1; data = "x" };
        ];
      Engine.run engine ~until:(Engine.now engine +. 0.5);
      Alcotest.(check bool)
        (label (Printf.sprintf "node %d does not re-create epoch 0" n))
        true
        (before = (S.epoch_stats svc n, S.live_instances svc n))
end

module Rolling_paxos = Rolling (KvService)
module Rolling_vr = Rolling (Rsmr_core.Service.Make_on (Rsmr_smr.Vr) (Kv))

let test_halt_after_drain run strategy () =
  List.iter (fun seed -> run ~strategy ~seed ~changes:6) [ 3; 4; 5 ]

(* --- every donor holds the same snapshot ---

   A joiner may assemble one snapshot from two donors: the one it asked
   first (under push, the one that sent unasked) and the next one after
   a stall.  That is only correct if every member that wedges epoch [e]
   at index [w] donates the same bytes.  The traced "wedged" event
   carries the digest of the snapshot its host donates; under rolling
   changes and load, every epoch's wedges must agree on both. *)

module Donors (S : Rsmr_core.Service.S with type app_state = Kv.t) = struct
  let run ~strategy ~seed ~changes =
    let engine = Engine.create ~seed () in
    let universe = [ 0; 1; 2; 3; 4; 5 ] in
    let svc =
      S.create ~engine ~latency:Rsmr_net.Latency.lan ~bandwidth:2.5e7 ~universe
        ~options:{ Options.default with Options.strategy }
        ~members:[ 0; 1; 2 ] ()
    in
    let cluster = S.cluster svc in
    let wedges = Hashtbl.create 8 in
    Rsmr_sim.Trace.subscribe (Rsmr_obs.Registry.bus (S.obs svc)) (fun ev ->
        let attr k = Option.get (Rsmr_sim.Trace.attr ev k) in
        if ev.Rsmr_sim.Trace.message = "wedged" then
          let epoch = int_of_string (attr "epoch") in
          let seen = Option.value ~default:[] (Hashtbl.find_opt wedges epoch) in
          Hashtbl.replace wedges epoch
            ((ev.Rsmr_sim.Trace.node, attr "widx", attr "snapshot") :: seen));
    Rsmr_workload.Driver.preload ~cluster ~client:99
      ~commands:
        (Rsmr_workload.Kv_gen.preload_commands ~n_keys:300 ~value_size:100)
      ~deadline:30.0 ();
    let start = Engine.now engine +. 0.2 in
    let gen =
      Rsmr_workload.Kv_gen.create ~rng:(Rsmr_sim.Rng.split (Engine.rng engine))
        ~keys:(Rsmr_workload.Keys.uniform ~n:300) ~read_ratio:0.5
        ~value_size:100 ()
    in
    ignore
      (Rsmr_workload.Driver.run_closed ~cluster ~n_clients:3
         ~first_client_id:100 ~window:4
         ~gen:(fun ~client:_ ~seq:_ -> Rsmr_workload.Kv_gen.next gen)
         ~start ~duration:(0.5 *. float_of_int (changes + 1)) ());
    Rsmr_workload.Schedule.periodic_reconfigure cluster ~universe ~size:3
      ~start:(start +. 0.3) ~period:0.5 ~count:changes;
    Engine.run engine ~until:(start +. (0.5 *. float_of_int changes) +. 3.0);
    let label what =
      Printf.sprintf "%s seed %d: %s" strategy.Rsmr_iface.Reconfig_strategy.name
        seed what
    in
    Alcotest.(check int) (label "reconfigurations") changes (S.current_epoch svc);
    for epoch = 0 to changes - 1 do
      match Hashtbl.find_opt wedges epoch with
      | Some ((_, w, d) :: (_ :: _ as rest)) ->
        List.iter
          (fun (n, w', d') ->
            Alcotest.(check (pair string string))
              (label (Printf.sprintf "epoch %d, node %d: wedge and snapshot" epoch n))
              (w, d) (w', d'))
          rest
      | Some _ | None ->
        Alcotest.failf "%s" (label (Printf.sprintf "epoch %d: under two wedges" epoch))
    done
end

module Donors_paxos = Donors (KvService)
module Donors_vr = Donors (Rsmr_core.Service.Make_on (Rsmr_smr.Vr) (Kv))

let test_donors_agree () =
  List.iter
    (fun strategy ->
      List.iter
        (fun seed ->
          Donors_paxos.run ~strategy ~seed ~changes:4;
          Donors_vr.run ~strategy ~seed ~changes:4)
        [ 1; 2 ])
    Rsmr_iface.Reconfig_strategy.[ composed; matchmaker; stopworld ]

(* --- one snapshot per joiner ---

   A single-member swap {0,1,2} -> {1,2,3} with the keyspace preloaded.
   Nodes 1 and 2 run epoch 0 and take the wedge-point state from their
   own wedge; only node 3 is new, so only node 3 gets the state over the
   network, and exactly one snapshot crosses it.  Under pull node 3 asks
   once; under push it is sent the snapshot and asks nobody. *)

(* The service's retry period for an unanswered snapshot fetch. *)
let fetch_timeout = 0.25

module Handoff (S : Rsmr_core.Service.S with type app_state = Kv.t) = struct
  type run = { svc : S.t; engine : Engine.t; cluster : Rsmr_iface.Cluster.t }

  let start ?(bandwidth = 1.25e8) ~strategy ~n_keys ~value_size () =
    let engine = Engine.create ~seed:1 () in
    let svc =
      S.create ~engine ~latency:Rsmr_net.Latency.lan ~bandwidth
        ~options:{ Options.default with Options.strategy }
        ~universe:[ 0; 1; 2; 3 ] ~members:[ 0; 1; 2 ] ()
    in
    let cluster = S.cluster svc in
    Rsmr_workload.Driver.preload ~cluster ~client:99
      ~commands:(Rsmr_workload.Kv_gen.preload_commands ~n_keys ~value_size)
      ~deadline:60.0 ();
    { svc; engine; cluster }

  let svc_count r key = Counters.get (S.counters r.svc) key
  let net_count r key = Counters.get (Network.counters (S.net r.svc)) key

  let state r n =
    match S.app_state r.svc n with
    | Some st -> Kv.snapshot st
    | None -> Alcotest.failf "node %d holds no state" n

  (* Swap node 0 for node 3 and run until node 3 has installed a state
     equal to node 1's. *)
  let swap ?(during = fun () -> ()) r ~deadline =
    reconfigure r.cluster [ 1; 2; 3 ];
    during ();
    let rec loop () =
      Engine.run ~until:(Engine.now r.engine +. 0.05) r.engine;
      let joined =
        match (S.app_state r.svc 1, S.app_state r.svc 3, S.host_epoch r.svc 3)
        with
        | Some a, Some b, Some 1 -> Kv.snapshot a = Kv.snapshot b
        | _ -> false
      in
      if not joined then
        if Engine.now r.engine >= deadline then
          Alcotest.failf "node 3 not activated by t=%g" deadline
        else loop ()
    in
    loop ()

  (* The chunks sent are one copy of the joiner's state: fewer bytes than
     two copies of its application state, in as many chunks as one
     snapshot of that many bytes makes. *)
  let check_one_snapshot r ~label =
    let bytes = svc_count r "transfer_bytes" in
    Alcotest.(check bool)
      (label "transfer bytes are one copy of the state")
      true
      (bytes < 2 * String.length (state r 3));
    Alcotest.(check int) (label "chunks_sent is one snapshot")
      ((bytes + Snapshot.chunk_bytes - 1) / Snapshot.chunk_bytes)
      (svc_count r "chunks_sent")

  let only_joiners_fetch strategy =
    let label what =
      Printf.sprintf "%s: %s" strategy.Rsmr_iface.Reconfig_strategy.name what
    in
    let r = start ~strategy ~n_keys:300 ~value_size:500 () in
    swap r ~deadline:(Engine.now r.engine +. 10.0);
    Engine.run ~until:(Engine.now r.engine +. 1.0) r.engine;
    Alcotest.(check int) (label "transfers") 1 (svc_count r "transfers");
    Alcotest.(check int) (label "local activations") 2
      (svc_count r "local_activations");
    Alcotest.(check int) (label "fetches sent")
      (match strategy.Rsmr_iface.Reconfig_strategy.transfer with
       | `Pull -> 1
       | `Push -> 0)
      (net_count r "sent.fetch_state");
    check_one_snapshot r ~label

  (* A joiner keeps chunks pushed to it before its epoch's instance
     exists.  Node 0 is node 3's first-choice donor (donors [0; 2; 1]:
     the new leader, node 1, last), so only node 0 pushes.  The links
     from nodes 1 and 2 drop everything, and node 3 is down from node
     0's wedge until 10 ms later: node 0's [Bootstrap], control traffic,
     arrives in that window and is lost, while its snapshot, a 30 ms
     chunk on a 200 kB/s uplink, arrives after it.  When node 0's next
     re-sent [Bootstrap] creates the instance, the instance takes the
     finished transfer over and installs it on the spot: no fetch, one
     snapshot. *)
  let pushed_chunks () =
    let strategy = Rsmr_iface.Reconfig_strategy.matchmaker in
    let label what = "pushed chunks: " ^ what in
    let r = start ~bandwidth:2e5 ~strategy ~n_keys:50 ~value_size:100 () in
    let net = S.net r.svc in
    let down = ref None in
    Rsmr_sim.Trace.subscribe (Rsmr_obs.Registry.bus (S.obs r.svc)) (fun ev ->
        if
          ev.Rsmr_sim.Trace.message = "wedged"
          && ev.Rsmr_sim.Trace.node = 0 && !down = None
        then begin
          down := Some ev.Rsmr_sim.Trace.time;
          Network.crash net 3;
          ignore
            (Engine.schedule r.engine ~delay:0.01 (fun () -> Network.recover net 3))
        end);
    List.iter
      (fun src -> Network.set_link_fault net ~src ~dst:3 ~drop:1.0)
      [ 1; 2 ];
    reconfigure r.cluster [ 1; 2; 3 ];
    let deadline = Engine.now r.engine +. 10.0 in
    (match Engine.run_until r.engine ~pred:(fun () -> !down <> None) ~deadline with
     | Some t -> Engine.run ~until:(t +. 0.1) r.engine
     | None -> Alcotest.fail (label "node 0 never wedged"));
    Alcotest.(check (option int)) (label "node 3 lost the bootstrap") None
      (S.host_epoch r.svc 3);
    (match
       Engine.run_until r.engine
         ~pred:(fun () -> S.host_epoch r.svc 3 = Some 1)
         ~deadline
     with
     | Some _ -> ()
     | None -> Alcotest.fail (label "node 3 never created epoch 1"));
    Alcotest.(check bool) (label "installed as the instance was created") true
      (S.app_state r.svc 3 <> None);
    Engine.run ~until:(Engine.now r.engine +. 1.0) r.engine;
    Alcotest.(check int) (label "transfers") 1 (svc_count r "transfers");
    Alcotest.(check int) (label "fetches sent") 0
      (net_count r "sent.fetch_state");
    check_one_snapshot r ~label;
    Alcotest.(check string) (label "node 3 agrees with node 1") (state r 1)
      (state r 3)

  (* A push that stalls is re-asked from the next donor.  Everything from
     node 0, node 3's first-choice donor, to node 3 is lost, its push
     included; nodes 1 and 2 bootstrap node 3.  After one [fetch_timeout]
     with no chunk, node 3 asks node 2, the next in its donor order
     [0; 2; 1], exactly once, and installs its snapshot. *)
  let stalled_push () =
    let strategy = Rsmr_iface.Reconfig_strategy.matchmaker in
    let label what = "stalled push: " ^ what in
    let r = start ~strategy ~n_keys:300 ~value_size:500 () in
    let net = S.net r.svc in
    let wedged = ref None and asked = ref [] in
    Rsmr_sim.Trace.subscribe (Rsmr_obs.Registry.bus (S.obs r.svc)) (fun ev ->
        let time = ev.Rsmr_sim.Trace.time in
        match ev.Rsmr_sim.Trace.message with
        | "wedged" -> if !wedged = None then wedged := Some time
        | "fetch" ->
          asked :=
            (ev.Rsmr_sim.Trace.node, Rsmr_sim.Trace.attr ev "donor", time)
            :: !asked
        | _ -> ());
    Network.set_link_fault net ~src:0 ~dst:3 ~drop:1.0;
    swap r ~deadline:(Engine.now r.engine +. 10.0);
    Engine.run ~until:(Engine.now r.engine +. 1.0) r.engine;
    (match (!wedged, !asked) with
     | Some w, [ (3, Some "2", t) ] ->
       Alcotest.(check bool)
         (label
            (Printf.sprintf "asked %.4fs after the first wedge" (t -. w)))
         true
         (t -. w >= fetch_timeout && t -. w < fetch_timeout +. 0.02)
     | None, _ -> Alcotest.fail (label "no wedge traced")
     | Some _, _ ->
       Alcotest.failf "%s"
         (label
            (Printf.sprintf "want one fetch, by node 3 from node 2; got %d"
               (List.length !asked))));
    Alcotest.(check int) (label "transfers") 1 (svc_count r "transfers");
    Alcotest.(check string) (label "node 3 agrees with node 1") (state r 1)
      (state r 3)

  (* (a) A snapshot that holds the donor's 2 MB/s uplink for about 0.5 s,
     twice [fetch_timeout]: chunks keep arriving, so nobody asks a second
     donor. *)
  let slow_transfer () =
    let label what = "slow transfer: " ^ what in
    let r =
      start ~bandwidth:2e6 ~strategy:Rsmr_iface.Reconfig_strategy.composed
        ~n_keys:2_000 ~value_size:500 ()
    in
    swap r ~deadline:(Engine.now r.engine +. 10.0);
    Alcotest.(check bool) (label "the snapshot is over 1 MB") true
      (svc_count r "transfer_bytes" > 1_000_000);
    Alcotest.(check int) (label "fetches sent") 1
      (net_count r "sent.fetch_state");
    check_one_snapshot r ~label

  (* (b) The donor dies halfway through: its queued chunks are lost with
     it.  The joiner asks the next old member once no chunk has arrived
     for [fetch_timeout], and installs a snapshot assembled from both. *)
  let stalled_transfer () =
    let label what = "stalled transfer: " ^ what in
    let r =
      start ~bandwidth:2e6 ~strategy:Rsmr_iface.Reconfig_strategy.composed
        ~n_keys:2_000 ~value_size:500 ()
    in
    let control = r.cluster.Rsmr_iface.Cluster.control in
    let rec await_fetch () =
      if net_count r "sent.fetch_state" = 0 then begin
        Engine.run ~until:(Engine.now r.engine +. 0.001) r.engine;
        await_fetch ()
      end
    in
    let during () =
      await_fetch ();
      (* Node 3 fetches from node 0 first; cut it off after half of the
         0.5 s transfer, in-flight chunks included. *)
      Engine.run ~until:(Engine.now r.engine +. 0.25) r.engine;
      Rsmr_iface.Overlay.crash control 0;
      Rsmr_iface.Overlay.partition control [ [ 1; 2; 3 ] ]
    in
    swap r ~during ~deadline:(Engine.now r.engine +. 10.0);
    Rsmr_iface.Overlay.heal control;
    Alcotest.(check int) (label "fetches sent") 2
      (net_count r "sent.fetch_state");
    Alcotest.(check int) (label "one remote activation") 1
      (svc_count r "transfers");
    Alcotest.(check bool) (label "both donors sent the snapshot") true
      (svc_count r "transfer_bytes" > 2 * String.length (state r 3));
    List.iter
      (fun n ->
        Alcotest.(check string)
          (label (Printf.sprintf "node %d agrees with node 1" n))
          (state r 1) (state r n))
      [ 2; 3 ]

  (* (c) Node 2 continues into the new configuration, but its links from
     the old members fail while the [Reconfig] commits and come back at
     the first wedge.  It hears the [Bootstrap] and then the
     leader's [Retire]: its old instance retires without having wedged,
     so no local handoff is coming, and it fetches at once instead of
     after [fetch_timeout], well inside a client's 0.5 s retry. *)
  let lagging_member () =
    let label what = "lagging member: " ^ what in
    let r =
      start ~strategy:Rsmr_iface.Reconfig_strategy.composed ~n_keys:300
        ~value_size:500 ()
    in
    let net = S.net r.svc in
    let healed_at = ref None and activated_at = ref None in
    Rsmr_sim.Trace.subscribe (Rsmr_obs.Registry.bus (S.obs r.svc)) (fun ev ->
        match ev.Rsmr_sim.Trace.message with
        | "wedged" when !healed_at = None ->
          healed_at := Some ev.Rsmr_sim.Trace.time;
          Network.clear_link_faults net
        | "activated" when ev.Rsmr_sim.Trace.node = 2 ->
          activated_at := Some ev.Rsmr_sim.Trace.time
        | _ -> ());
    let during () =
      List.iter
        (fun src -> Network.set_link_fault net ~src ~dst:2 ~drop:1.0)
        [ 0; 1 ]
    in
    swap r ~during ~deadline:(Engine.now r.engine +. 10.0);
    Engine.run ~until:(Engine.now r.engine +. 1.0) r.engine;
    (match S.epoch_stats r.svc 2 with
     | [ old; next ] ->
       Alcotest.(check bool) (label "old instance retired unwedged") true
         (old.Rsmr_core.Service.es_retired
         && old.Rsmr_core.Service.es_wedged_at = None);
       Alcotest.(check bool) (label "epoch 1 activated") true
         next.Rsmr_core.Service.es_activated
     | _ -> Alcotest.fail (label "node 2 does not host epochs 0 and 1"));
    Alcotest.(check int) (label "node 2 activated by transfer too") 2
      (svc_count r "transfers");
    (match (!healed_at, !activated_at) with
     | Some healed, Some activated ->
       Alcotest.(check bool) (label "activated within fetch_timeout") true
         (activated -. healed < fetch_timeout)
     | _ -> Alcotest.fail (label "no wedge or no activation traced"));
    Alcotest.(check string) (label "node 2 agrees with node 1") (state r 1)
      (state r 2)

  (* (d) A forged chunk stops nothing.  Node 2 sends joiner 3 a
     one-chunk snapshot of epoch 1 that does not decode, before node 3's
     instance exists.  The instance takes it over and cannot install it:
     it drops it, waits one [fetch_timeout] and fetches node 0's
     snapshot. *)
  let forged_chunk () =
    let label what = "forged chunk: " ^ what in
    let r =
      start ~strategy:Rsmr_iface.Reconfig_strategy.composed ~n_keys:300
        ~value_size:500 ()
    in
    let during () =
      Network.send (S.net r.svc) ~src:2 ~dst:3
        (Wire.State_chunk { epoch = 1; index = 0; total = 1; data = "\xff" })
    in
    swap r ~during ~deadline:(Engine.now r.engine +. 10.0);
    Alcotest.(check int) (label "fetches sent") 1
      (net_count r "sent.fetch_state");
    Alcotest.(check int) (label "one remote activation") 1
      (svc_count r "transfers");
    Alcotest.(check string) (label "node 3 agrees with node 1") (state r 1)
      (state r 3)

  (* (f) A forged block payload stops nothing.  Node 2 sends a 1-byte
     [Block] that does not decode: to node 1's live instance of epoch 0
     during the swap, and, under stopworld's blocking handoff, to joiner
     3's instance of epoch 1 while it awaits its state, so the message
     waits in the instance's early buffer until its replica starts.  Both
     are dropped: the joiner activates with the donor's state and the
     replicas agree. *)
  let forged_block () =
    let label what = "forged block: " ^ what in
    let forged = "\xff" in
    let r =
      start ~strategy:Rsmr_iface.Reconfig_strategy.composed ~n_keys:300
        ~value_size:500 ()
    in
    let during () =
      Network.send (S.net r.svc) ~src:2 ~dst:1 (Wire.Block { epoch = 0; data = forged })
    in
    swap r ~during ~deadline:(Engine.now r.engine +. 10.0);
    Alcotest.(check string) (label "live: node 2 agrees with node 1") (state r 1)
      (state r 2);
    (* Over a 10 Mb/s uplink the snapshot takes about 0.1 s to cross. *)
    let r =
      start ~bandwidth:1.25e6 ~strategy:Rsmr_iface.Reconfig_strategy.stopworld
        ~n_keys:300 ~value_size:500 ()
    in
    let during () =
      let step () = Engine.run ~until:(Engine.now r.engine +. 0.0005) r.engine in
      let deadline = Engine.now r.engine +. 5.0 in
      while S.host_epoch r.svc 3 <> Some 1 && Engine.now r.engine < deadline do
        step ()
      done;
      Network.send (S.net r.svc) ~src:2 ~dst:3 (Wire.Block { epoch = 1; data = forged });
      for _ = 1 to 4 do step () done;
      Alcotest.(check bool) (label "awaiting: delivered before node 3 activates")
        true (S.app_state r.svc 3 = None && S.live_instances r.svc 3 = 0)
    in
    swap r ~during ~deadline:(Engine.now r.engine +. 10.0);
    Alcotest.(check string) (label "awaiting: node 2 agrees with node 1")
      (state r 1) (state r 2)

  (* (e) The words a handoff allocates from [reconfigure] to the
     joiner's activation, in copies of the state: the three wedge
     snapshots, the donor's chunks, the joiner's two parts and its
     restored table, and the block and network traffic.  7.1 copies over
     Paxos and 6.9 over VR; 11.2 and 10.9 when each wedge encoded its
     snapshot again and the joiner joined its chunks before decoding
     them.  A minor collection at each end makes [Gc.counters] exact. *)
  let handoff_allocation () =
    let r =
      start ~strategy:Rsmr_iface.Reconfig_strategy.composed ~n_keys:300
        ~value_size:500 ()
    in
    let allocated () =
      Gc.minor ();
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let deadline = Engine.now r.engine +. 10.0 in
    let before = allocated () in
    reconfigure r.cluster [ 1; 2; 3 ];
    while Option.is_none (S.app_state r.svc 3) && Engine.now r.engine < deadline do
      Engine.run ~until:(Engine.now r.engine +. 0.001) r.engine
    done;
    let words = allocated () -. before in
    Alcotest.(check string) "node 3 agrees with node 1" (state r 1) (state r 3);
    let copies = words /. float_of_int (String.length (state r 1) / 8) in
    Alcotest.(check bool)
      (Printf.sprintf "%.2f state-sized copies, at most 8" copies)
      true (copies <= 8.)
end

module Handoff_paxos = Handoff (KvService)
module Handoff_vr = Handoff (Rsmr_core.Service.Make_on (Rsmr_smr.Vr) (Kv))

let test_pushed_chunks () =
  Handoff_paxos.pushed_chunks ();
  Handoff_vr.pushed_chunks ()

let test_stalled_push () =
  Handoff_paxos.stalled_push ();
  Handoff_vr.stalled_push ()

let test_forged_chunk () =
  Handoff_paxos.forged_chunk ();
  Handoff_vr.forged_chunk ()

let test_forged_block () =
  Handoff_paxos.forged_block ();
  Handoff_vr.forged_block ()

let test_handoff_allocation () =
  Handoff_paxos.handoff_allocation ();
  Handoff_vr.handoff_allocation ()

let test_only_joiners_fetch () =
  List.iter
    (fun strategy ->
      Handoff_paxos.only_joiners_fetch strategy;
      Handoff_vr.only_joiners_fetch strategy)
    Rsmr_iface.Reconfig_strategy.[ composed; matchmaker; stopworld ]

(* --- which leader a redirect names ---

   Epoch 0 runs on [0; 1; 2] and changes to [1; 2; 3], whose first member
   (node 1) is where the new configuration serves first.  A probe node
   sends a request straight to a host and reads the hint of the redirect
   it gets back. *)

module Hints (S : Rsmr_core.Service.S with type app_state = Kv.t) = struct
  module Client_msg = Rsmr_client.Client_msg

  let probe = 200

  let start () =
    let engine = Engine.create ~seed:1 () in
    let svc =
      S.create ~engine ~universe:[ 0; 1; 2; 3 ] ~members:[ 0; 1; 2 ] ()
    in
    let cluster = S.cluster svc in
    cluster.Rsmr_iface.Cluster.add_client c1;
    cluster.Rsmr_iface.Cluster.submit ~client:c1 ~seq:1
      ~cmd:(Kv.encode_command (Kv.Put ("k", "v")));
    Engine.run ~until:2.0 engine;
    (engine, svc, cluster)

  (* The leader named by [host]'s redirect of one request. *)
  let hint (engine, svc, _) host =
    let net = S.net svc in
    let got = ref [] in
    Network.register net probe (fun env ->
        match env.Network.payload with
        | Wire.Client (Client_msg.Redirect { leader; _ }) ->
          got := leader :: !got
        | _ -> ());
    Network.send net ~src:probe ~dst:host
      (Wire.Client
         (Client_msg.Request
            {
              seq = 1;
              low_water = 0;
              payload = Client_msg.Cmd (Kv.encode_command (Kv.Get "k"));
            }));
    Engine.run ~until:(Engine.now engine +. 0.05) engine;
    match !got with
    | [ leader ] -> leader
    | l -> Alcotest.failf "node %d: %d redirects" host (List.length l)

  let epoch0 svc host =
    List.find_opt
      (fun (es : Rsmr_core.Service.epoch_stat) -> es.es_epoch = 0)
      (S.epoch_stats svc host)

  let run () =
    let ((_, svc, _) as r) = start () in
    let leader = S.current_leader svc in
    let follower = if leader = Some 1 then 2 else 1 in
    Alcotest.(check (option int)) "a live follower names its replica's hint"
      leader (hint r follower);
    (* Wedged: the two other old members crash at the first wedge, so the
       drain barrier is never decided and the instance stays wedged. *)
    let ((engine, svc, cluster) as r) = start () in
    let wedged = ref None in
    Rsmr_sim.Trace.subscribe (Rsmr_obs.Registry.bus (S.obs svc)) (fun ev ->
        if ev.Rsmr_sim.Trace.message = "wedged" && !wedged = None then begin
          let w = ev.Rsmr_sim.Trace.node in
          wedged := Some w;
          List.iter (fun n -> if n <> w then crash cluster n) [ 0; 1; 2 ]
        end);
    reconfigure cluster [ 1; 2; 3 ];
    Engine.run ~until:(Engine.now engine +. 1.0) engine;
    (match !wedged with
     | None -> Alcotest.fail "nobody wedged"
     | Some w ->
       (match epoch0 svc w with
        | Some es ->
          Alcotest.(check bool) "epoch 0 wedged, not retired" true
            (es.es_wedged_at <> None && not es.es_retired)
        | None -> Alcotest.fail "no epoch 0 record");
       Alcotest.(check (option int))
         "a wedged host names the newest configuration's first member"
         (Some 1) (hint r w));
    (* Retired: node 0 leaves, drains and retires epoch 0. *)
    let ((engine, svc, cluster) as r) = start () in
    reconfigure cluster [ 1; 2; 3 ];
    Engine.run ~until:(Engine.now engine +. 2.0) engine;
    Alcotest.(check bool) "node 0 retired epoch 0" true
      (match epoch0 svc 0 with Some es -> es.es_retired | None -> false);
    Alcotest.(check (option int))
      "a retired host names the newest configuration's first member"
      (Some 1) (hint r 0)

  (* Every update for the change is lost on its way to the directory, the
     announce included; once the links heal, the re-sent ones get
     through. *)
  let directory_catches_up () =
    let engine, svc, cluster = start () in
    let net = S.net svc and dir = S.directory_id svc in
    List.iter
      (fun src -> Network.set_link_fault net ~src ~dst:dir ~drop:1.0)
      [ 0; 1; 2; 3 ];
    reconfigure cluster [ 1; 2; 3 ];
    Engine.run ~until:(Engine.now engine +. 0.5) engine;
    Alcotest.(check int) "the directory missed the change" 0
      (S.current_epoch svc);
    Network.clear_link_faults net;
    Engine.run ~until:(Engine.now engine +. 0.5) engine;
    Alcotest.(check (pair int (list int))) "and learns it once healed"
      (1, [ 1; 2; 3 ])
      (S.current_epoch svc, List.sort compare (S.current_members svc))
end

module Hints_paxos = Hints (KvService)
module Hints_vr = Hints (Rsmr_core.Service.Make_on (Rsmr_smr.Vr) (Kv))

let () =
  Alcotest.run "core"
    [
      ( "units",
        [
          Alcotest.test_case "envelope roundtrip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "session semantics" `Quick test_session_semantics;
          Alcotest.test_case "session trim" `Quick test_session_trim;
          Alcotest.test_case "session steady state allocates nothing" `Quick
            test_session_steady_state_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_session_matches_model;
          Alcotest.test_case "snapshot chunking" `Quick test_snapshot_chunking;
          Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "epoch audit" `Quick test_epoch_audit;
        ] );
      ( "service",
        [
          Alcotest.test_case "basic put/get" `Quick test_basic_put_get;
          Alcotest.test_case "exactly-once on retry" `Quick
            test_exactly_once_on_retry;
          Alcotest.test_case "reconfigure overlapping" `Quick
            test_reconfigure_overlapping;
          Alcotest.test_case "reconfigure disjoint" `Quick
            test_reconfigure_disjoint;
          Alcotest.test_case "no loss around reconfig" `Quick
            test_commands_during_reconfig_not_lost;
          Alcotest.test_case "rolling replace" `Quick
            test_chained_reconfigs_rolling_replace;
          Alcotest.test_case "non-speculative mode" `Quick
            test_non_speculative_mode;
          Alcotest.test_case "crash during reconfig" `Quick
            test_crash_old_leader_mid_reconfig;
          Alcotest.test_case "client follows via directory" `Quick
            test_client_follows_reconfig_via_directory;
          Alcotest.test_case "lost directory lookup is retried" `Quick
            test_lost_lookup_does_not_strand_client;
          Alcotest.test_case "grow and shrink" `Quick test_grow_and_shrink;
          Alcotest.test_case "rapid double reconfigure" `Quick
            test_rapid_double_reconfigure;
          Alcotest.test_case "duplicate request fast path" `Quick
            test_duplicate_request_fast_path;
          Alcotest.test_case "session gc bounds table" `Quick
            test_session_gc_bounds_snapshot;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
          Alcotest.test_case "stray chunks start nothing" `Quick
            test_stray_chunks;
          Alcotest.test_case "transfer: donor order" `Quick
            test_epoch_donor_order;
          Alcotest.test_case "transfer: a pushed joiner waits for its donor"
            `Quick test_epoch_push;
          Alcotest.test_case "transfer: a continuing member waits for its wedge"
            `Quick test_epoch_continuing_member;
          Alcotest.test_case "transfer: a moving transfer is not re-requested"
            `Quick test_epoch_moving;
          Alcotest.test_case "transfer: undecodable chunks are dropped" `Quick
            test_epoch_rejected;
          Alcotest.test_case "epoch: an epoch is created once" `Quick
            test_epoch_bootstrap_once;
          Alcotest.test_case "epoch: the first wedge wins" `Quick
            test_epoch_first_wedge;
          Alcotest.test_case "epoch: only the leader drains and retires" `Quick
            test_epoch_drain;
          Alcotest.test_case "epoch: only the leader re-submits residuals"
            `Quick test_epoch_residuals;
          Alcotest.test_case "epoch: Retire e retires every epoch below e"
            `Quick test_epoch_retire_below;
          Alcotest.test_case "epoch: the speculative buffer replays in order"
            `Quick test_epoch_speculative_buffer;
          Alcotest.test_case "epoch: the announce fires once" `Quick
            test_epoch_announce;
          Alcotest.test_case "epoch: the per-command reads allocate nothing"
            `Quick test_epoch_reads;
          Alcotest.test_case "old instance halts once drained (paxos)" `Quick
            (test_halt_after_drain Rolling_paxos.run Strategy.composed);
          Alcotest.test_case "old instance halts once drained (vr)" `Quick
            (test_halt_after_drain Rolling_vr.run Strategy.composed);
          Alcotest.test_case
            "old instance halts once drained (matchmaker paxos)" `Quick
            (test_halt_after_drain Rolling_paxos.run Strategy.matchmaker);
          Alcotest.test_case "old instance halts once drained (matchmaker vr)"
            `Quick
            (test_halt_after_drain Rolling_vr.run Strategy.matchmaker);
          Alcotest.test_case "only joiners fetch" `Quick
            test_only_joiners_fetch;
          Alcotest.test_case "pushed chunks outlive a lost bootstrap" `Quick
            test_pushed_chunks;
          Alcotest.test_case "stalled push resumes from the next donor" `Quick
            test_stalled_push;
          Alcotest.test_case "every donor holds the same snapshot" `Quick
            test_donors_agree;
          Alcotest.test_case "a forged chunk stops no handoff" `Quick
            test_forged_chunk;
          Alcotest.test_case "a forged block payload stops no handoff" `Quick
            test_forged_block;
          Alcotest.test_case "a handoff allocates at most 8 state copies" `Quick
            test_handoff_allocation;
          Alcotest.test_case "slow transfer is not re-requested" `Quick
            Handoff_paxos.slow_transfer;
          Alcotest.test_case "stalled transfer resumes from the next donor"
            `Quick Handoff_paxos.stalled_transfer;
          Alcotest.test_case "lagging member fetches once retired" `Quick
            Handoff_paxos.lagging_member;
          Alcotest.test_case "redirect hints (paxos)" `Quick Hints_paxos.run;
          Alcotest.test_case "redirect hints (vr)" `Quick Hints_vr.run;
          Alcotest.test_case "directory catches up after lost updates" `Quick
            (fun () ->
              Hints_paxos.directory_catches_up ();
              Hints_vr.directory_catches_up ());
          QCheck_alcotest.to_alcotest prop_exactly_once_across_reconfig;
          QCheck_alcotest.to_alcotest prop_bank_conservation_across_faults;
        ] );
      ("directory semantics", Oracle_props.all @ Dir_app_props.all);
    ]
