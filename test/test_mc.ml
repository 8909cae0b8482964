(* Scope (the explicit-state model checker) end-to-end: a tiny scope
   must exhaust with zero violations over every composed protocol (both
   blocks, every strategy) while still reaching the protocol's
   milestones (a wedge and an epoch-1 activation), re-breaking the
   first-wedge-wins guard must produce a short replayable counterexample
   over either block and under either transfer, and skipping phase 1
   above ballot 0 must be caught (the checker's teeth), replays must be
   bit-for-bit deterministic (fingerprint sequence identical across
   independent replays of the same trace), and composite fingerprints
   must not depend on the order their parts were gathered in. *)

module Scope = Rsmr_mc.Scope
module Choice = Rsmr_mc.Choice
module Harness = Rsmr_mc.Harness
module Explore = Rsmr_mc.Explore
module Fingerprint = Rsmr_mc.Fingerprint
module Protocol = Rsmr_protocol.Protocol

let proto name = Option.get (Protocol.find name)

let scope_of s = match Scope.parse s with Ok s -> s | Error e -> failwith e
let tiny_scope = scope_of "minimal,commands=1,timer_fires=1"

(* The tiny scope with the batching windows on: three timer fires, for
   the client's coalescing window, the leader's proposal window and one
   more (an election, or the step that submits the drain barrier). *)
let tiny_batch_scope = scope_of "minimal,commands=1,timer_fires=3,batch=2"

(* --- exhaustion: tiny scope, every composed protocol --- *)

(* The exact visited count pins Scope's fingerprint bytes: any change to
   what [canonical_state] writes (or to the reachable behaviour) moves
   it, so fingerprint drift fails [dune runtest], not only the CI
   minimal-scope run. *)
let test_exhaust ?(scope = tiny_scope) proto ~visited () =
  let stats =
    Explore.run ~proto ~scope ~mutation:None ()
  in
  Alcotest.(check bool) "exhausted" true stats.Explore.exhausted;
  Alcotest.(check bool) "no violation" true (stats.Explore.violation = None);
  Alcotest.(check int) "visited" visited stats.Explore.visited;
  let cov = stats.Explore.coverage in
  Alcotest.(check bool) "reached a wedge" true cov.Harness.cov_wedged;
  Alcotest.(check bool) "activated epoch 1" true cov.Harness.cov_activated;
  Alcotest.(check bool) "client got a reply" true (cov.Harness.cov_replies >= 1)

(* --- teeth: the mutation must yield a short counterexample --- *)

let mutation = Some Rsmr_core.Options.No_first_wedge

let find_counterexample proto =
  let stats = Explore.run ~proto ~scope:Scope.minimal ~mutation () in
  match stats.Explore.violation with
  | None -> Alcotest.fail "mutated exploration found no violation"
  | Some (prop, trace) -> (prop, trace)

(* The guard is the composition layer's, so the mutation must be caught
   whatever the block and however the snapshot reaches a joiner. *)
let test_mutation_counterexample proto () =
  let prop, trace = find_counterexample proto in
  Alcotest.(check bool)
    "epoch-prefix property violated" true
    (String.length prop >= 12 && String.sub prop 0 12 = "epoch-prefix");
  Alcotest.(check bool)
    "counterexample is short (a few dozen steps)" true
    (List.length trace <= 36);
  (* the trace must reproduce the violation when replayed from scratch *)
  let h = Harness.replay ~proto ~scope:Scope.minimal ~mutation trace in
  (match Harness.violation h with
   | Some p -> Alcotest.(check string) "replayed violation" prop p
   | None -> Alcotest.fail "replaying the counterexample showed no violation");
  (* and it must round-trip through the trace string format *)
  let s = Choice.seq_to_string trace in
  match Choice.seq_of_string s with
  | Some trace' ->
    Alcotest.(check bool) "trace round-trips" true
      (List.for_all2 Choice.equal trace trace')
  | None -> Alcotest.fail "trace failed to parse back"

(* Phase 1 skipped at a ballot above 0: a member that times out leads on
   its own log and overwrites a slot the ballot-0 owner already had
   chosen, so two nodes decide different commands at one index. *)
let test_skip_phase1_caught () =
  let stats =
    Explore.run ~proto:Protocol.core ~scope:Scope.minimal
      ~mutation:(Some Rsmr_core.Options.Skip_phase1) ()
  in
  match stats.Explore.violation with
  | None -> Alcotest.fail "skip-phase1 exploration found no violation"
  | Some (prop, _) ->
    Alcotest.(check bool)
      "committed-prefix property violated" true
      (String.length prop >= 16 && String.sub prop 0 16 = "committed-prefix")

(* Session dedup off: the minimal scope holds a run that orders one
   command twice and applies it twice.  It came within reach when a
   client's first re-send after a redirect stopped needing a timer fire;
   before, this scope exhausted with no violation. *)
let test_session_dedup_caught () =
  let stats =
    Explore.run ~proto:Protocol.core ~scope:Scope.minimal
      ~mutation:(Some Rsmr_core.Options.No_session_dedup) ()
  in
  match stats.Explore.violation with
  | None -> Alcotest.fail "session-dedup exploration found no violation"
  | Some (prop, _) ->
    Alcotest.(check bool)
      "exactly-once property violated" true
      (String.length prop >= 12 && String.sub prop 0 12 = "exactly-once")

(* A bulk queue's choices have their own tokens (upper case), so a trace
   that delivers a control message ahead of an earlier chunk on the same
   link replays as it was found. *)
let test_bulk_tokens () =
  let trace =
    [
      Choice.Deliver { src = 1; dst = 2; bulk = false };
      Choice.Deliver { src = 1; dst = 2; bulk = true };
      Choice.Drop { src = 3; dst = 4; bulk = true };
      Choice.Drop { src = 3; dst = 4; bulk = false };
    ]
  in
  Alcotest.(check string) "tokens" "d1-2;D1-2;X3-4;x3-4"
    (Choice.seq_to_string trace);
  match Choice.seq_of_string "d1-2;D1-2;X3-4;x3-4" with
  | Some trace' ->
    Alcotest.(check bool) "parses back" true
      (List.for_all2 Choice.equal trace trace')
  | None -> Alcotest.fail "bulk tokens failed to parse"

(* --- bit-for-bit determinism: independent replays agree stepwise --- *)

let fingerprint_film trace =
  let h =
    Harness.create ~proto:Protocol.core ~scope:Scope.minimal ~mutation ()
  in
  let film = ref [ Harness.fingerprint h ] in
  List.iter
    (fun c ->
      Harness.apply h c;
      film := Harness.fingerprint h :: !film)
    trace;
  List.rev !film

let test_replay_determinism () =
  let _, trace = find_counterexample Protocol.core in
  let a = fingerprint_film trace in
  let b = fingerprint_film trace in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      if not (Fingerprint.equal x y) then
        Alcotest.failf "fingerprint diverged at step %d: %s vs %s" i
          (Fingerprint.to_hex x) (Fingerprint.to_hex y))
    (List.combine a b)

(* --- fingerprints are insertion-order independent --- *)

let kv_gen =
  QCheck.Gen.(
    list_size (int_range 1 8)
      (pair (string_size (int_bound 12)) (string_size (int_bound 24))))

(* deterministic pseudo-shuffle: sort by a keyed digest of each binding *)
let shuffle salt kvs =
  List.map snd
    (List.sort compare
       (List.map
          (fun (k, v) ->
            (Fingerprint.of_string (Printf.sprintf "%d|%s|%s" salt k v), (k, v)))
          kvs))

let prop_of_kv_order_independent =
  QCheck.Test.make ~name:"of_kv is insertion-order independent" ~count:500
    (QCheck.make QCheck.Gen.(pair small_int kv_gen))
    (fun (salt, kvs) ->
      Fingerprint.equal (Fingerprint.of_kv kvs)
        (Fingerprint.of_kv (shuffle salt kvs))
      && Fingerprint.equal (Fingerprint.of_kv kvs)
           (Fingerprint.of_kv (List.rev kvs)))

let prop_of_kv_framed =
  QCheck.Test.make ~name:"of_kv distinguishes rebracketed bindings" ~count:500
    (QCheck.make (QCheck.Gen.pair QCheck.Gen.string QCheck.Gen.string))
    (fun (a, b) ->
      (* moving a character across the k/v boundary must change the
         digest: length framing prevents ("ab","c") ~ ("a","bc") *)
      String.length a = 0
      || Fingerprint.equal
           (Fingerprint.of_kv [ (a, b) ])
           (Fingerprint.of_kv
              [ (String.sub a 0 (String.length a - 1),
                 String.make 1 a.[String.length a - 1] ^ b) ])
         = false)

let () =
  Alcotest.run "mc"
    [
      ( "exhaustion",
        [
          Alcotest.test_case "core tiny scope" `Slow
            (test_exhaust Protocol.core ~visited:59702);
          Alcotest.test_case "stopworld tiny scope" `Slow
            (test_exhaust Protocol.stopworld ~visited:26776);
          Alcotest.test_case "core tiny scope, batch=2" `Slow
            (test_exhaust ~scope:tiny_batch_scope Protocol.core ~visited:75775);
          Alcotest.test_case "core/vr tiny scope" `Slow
            (test_exhaust Protocol.core_vr ~visited:28798);
          Alcotest.test_case "matchmaker tiny scope" `Slow
            (test_exhaust Protocol.matchmaker ~visited:55539);
          Alcotest.test_case "matchmaker/vr tiny scope" `Slow
            (test_exhaust (proto "matchmaker/vr") ~visited:27066);
          Alcotest.test_case "stopworld/vr tiny scope" `Slow
            (test_exhaust (proto "stopworld/vr") ~visited:21052);
        ] );
      ( "teeth",
        [
          Alcotest.test_case "mutation yields counterexample" `Slow
            (test_mutation_counterexample Protocol.core);
          Alcotest.test_case "skip-phase1 mutation is caught" `Slow
            test_skip_phase1_caught;
          Alcotest.test_case "session-dedup mutation is caught" `Slow
            test_session_dedup_caught;
          Alcotest.test_case "replay is bit-for-bit deterministic" `Slow
            test_replay_determinism;
          Alcotest.test_case "first-wedge caught over core/vr" `Slow
            (test_mutation_counterexample Protocol.core_vr);
          Alcotest.test_case "first-wedge caught over matchmaker" `Slow
            (test_mutation_counterexample Protocol.matchmaker);
        ] );
      ( "choices",
        [ Alcotest.test_case "bulk tokens round-trip" `Quick test_bulk_tokens ]
      );
      ( "fingerprint",
        [
          QCheck_alcotest.to_alcotest prop_of_kv_order_independent;
          QCheck_alcotest.to_alcotest prop_of_kv_framed;
        ] );
    ]
