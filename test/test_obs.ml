(* The Observatory layer, observed from outside:

   - the rsmr-metrics/1 JSON document has a pinned, byte-exact shape;
   - rendering is insertion-order independent (QCheck, because the cell
     orderings are where the bugs hide);
   - scopes and live section views behave;
   - the span collector stitches lifecycle events into full spans,
     first observation winning;
   - a real crucible run resolves a terminal state for >= 99% of
     submitted commands and exports per-node / per-epoch /
     per-message-type series. *)

module Counters = Rsmr_sim.Counters
module Histogram = Rsmr_sim.Histogram
module Timeseries = Rsmr_sim.Timeseries
module Trace = Rsmr_sim.Trace
module Registry = Rsmr_obs.Registry
module Span = Rsmr_obs.Span
module Scenario = Rsmr_crucible.Scenario
module Generate = Rsmr_crucible.Generate
module Runner = Rsmr_crucible.Runner
module Protocol = Rsmr_protocol.Protocol

(* {1 Registry} *)

let test_cells_are_live () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~labels:[ ("node", "3") ] "applied" in
  incr c;
  incr c;
  let c' = Registry.counter reg ~labels:[ ("node", "3") ] "applied" in
  Alcotest.(check bool) "same cell" true (c == c');
  Alcotest.(check int) "live value" 2 !c';
  (* Label canonicalization: order and duplicates don't split cells. *)
  let a = Registry.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "x" in
  let b =
    Registry.counter reg ~labels:[ ("a", "1"); ("b", "2"); ("a", "1") ] "x"
  in
  Alcotest.(check bool) "canonical labels" true (a == b)

let test_kind_mismatch () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "m");
  Alcotest.check_raises "counter vs histogram"
    (Invalid_argument
       "Registry: m{} already registered as a counter, not a histogram")
    (fun () -> ignore (Registry.histogram reg "m"))

let test_scope () =
  let reg = Registry.create () in
  let sc = Registry.scope ~node:2 ~epoch:5 reg in
  let c = Registry.scope_counter sc "wedged" in
  incr c;
  let direct =
    Registry.counter reg ~labels:[ ("epoch", "5"); ("node", "2") ] "wedged"
  in
  Alcotest.(check bool) "scope resolves the same cell" true (c == direct);
  Alcotest.(check int) "value" 1 !direct

(* A section cell, optionally with a msg_type label. *)
let section_cell reg ?msg_type section name =
  let labels =
    ("section", section)
    :: (match msg_type with Some m -> [ ("msg_type", m) ] | None -> [])
  in
  Registry.counter reg ~labels name

let test_section_view () =
  let reg = Registry.create () in
  section_cell reg "net" "sent" := 7;
  section_cell reg ~msg_type:"accept" "net" "sent" := 5;
  section_cell reg ~msg_type:"block.prepare" "net" "sent" := 2;
  section_cell reg "svc" "sent" := 100;
  (Registry.counter reg ~labels:[ ("node", "1"); ("section", "net") ] "sent")
  := 1000;
  Alcotest.(check (list (pair string int)))
    "exact section labels only, msg_type rebuilt as a dotted key"
    [ ("sent", 7); ("sent.accept", 5); ("sent.block.prepare", 2) ]
    (Counters.to_list (Registry.counters reg "net"));
  (* The export carries the cells as they are: no key splitting. *)
  let net_sent =
    List.filter
      (fun c ->
        String.equal c.Registry.f_name "sent"
        && List.assoc_opt "section" c.Registry.f_labels = Some "net")
      (Registry.flat_counters reg)
  in
  Alcotest.(check int) "four net sent cells" 4 (List.length net_sent)

let test_section_view_is_live () =
  let reg = Registry.create () in
  let view = Registry.counters reg "svc" in
  Alcotest.(check (list (pair string int))) "empty at first" []
    (Counters.to_list view);
  let applied = section_cell reg "svc" "applied" in
  applied := 3;
  Alcotest.(check int) "a cell created after the view shows" 3
    (Counters.get view "applied");
  incr applied;
  section_cell reg ~msg_type:"client" "svc" "sent" := 2;
  Alcotest.(check (list (pair string int))) "later bumps show"
    [ ("applied", 4); ("sent.client", 2) ]
    (Counters.to_list view)

(* {1 The pinned rsmr-metrics/1 document} *)

(* One registry exercising every feature: meta, plain and labeled
   counters, section cells with and without a msg_type, a histogram and
   a series.  The expected string is the contract pinned by the schema
   version — changing it means bumping rsmr-metrics/1. *)
let golden_registry () =
  let reg = Registry.create ~meta:[ ("proto", "test"); ("seed", "7") ] () in
  let c = Registry.counter reg ~labels:[ ("epoch", "0"); ("node", "1") ] "applied" in
  c := 4;
  let w = Registry.counter reg "wedges" in
  w := 1;
  section_cell reg "net" "sent" := 3;
  section_cell reg ~msg_type:"accept" "net" "sent" := 2;
  let h = Registry.histogram reg ~labels:[ ("kind", "latency") ] "span.latency_s" in
  Histogram.record h 1.0;
  let s = Registry.series reg "tput" in
  Timeseries.add s ~time:0.5 10.0;
  Timeseries.add s ~time:1.5 12.5;
  reg

let golden_expected =
  "{\n\
  \  \"schema\": \"rsmr-metrics/1\",\n\
  \  \"meta\": {\"proto\":\"test\",\"seed\":\"7\"},\n\
  \  \"counters\": [\n\
  \    {\"name\":\"applied\",\"labels\":{\"epoch\":\"0\",\"node\":\"1\"},\"value\":4},\n\
  \    {\"name\":\"sent\",\"labels\":{\"msg_type\":\"accept\",\"section\":\"net\"},\"value\":2},\n\
  \    {\"name\":\"sent\",\"labels\":{\"section\":\"net\"},\"value\":3},\n\
  \    {\"name\":\"wedges\",\"labels\":{},\"value\":1}\n\
  \  ],\n\
  \  \"histograms\": [\n\
  \    {\"name\":\"span.latency_s\",\"labels\":{\"kind\":\"latency\"},\"count\":1,\"mean\":1.0,\"min\":1.0,\"max\":1.0,\"p50\":1.0,\"p90\":1.0,\"p99\":1.0}\n\
  \  ],\n\
  \  \"series\": [\n\
  \    {\"name\":\"tput\",\"labels\":{},\"points\":[[0.5,10.0],[1.5,12.5]]}\n\
  \  ]\n\
  }"

let test_golden_json () =
  Alcotest.(check string)
    "rsmr-metrics/1 shape" golden_expected
    (Registry.to_json (golden_registry ()))

(* {1 Order independence (QCheck)} *)

(* A small op language over a registry; permuting the ops must not change
   the rendered document (counters commute; series are not re-sorted,
   so series ops here keep a fixed time per key). *)
type op =
  | Bump of string * (string * string) list * int
  | Section of string * string option * string * int
  | Meta of string * string

let apply_op reg = function
  | Bump (name, labels, n) ->
    let c = Registry.counter reg ~labels name in
    c := !c + n
  | Section (sec, msg_type, name, n) ->
    let c = section_cell reg ?msg_type sec name in
    c := !c + n
  | Meta (k, v) -> Registry.set_meta reg k v

let op_gen =
  QCheck.Gen.(
    let name = oneofl [ "applied"; "wedges"; "sent"; "elections" ] in
    let label =
      oneofl [ []; [ ("node", "1") ]; [ ("node", "2"); ("epoch", "1") ] ]
    in
    frequency
      [
        (4, map3 (fun n l v -> Bump (n, l, v)) name label (int_range 1 50));
        ( 2,
          map3
            (fun s (m, k) v -> Section (s, m, k, v))
            (oneofl [ "net"; "svc" ])
            (oneofl
               [
                 (None, "sent");
                 (Some "accept", "sent");
                 (Some "heartbeat", "bytes");
                 (None, "replies");
               ])
            (int_range 1 50) );
        (1, map (fun v -> Meta ("run", Printf.sprintf "r%d" v)) (int_range 0 3));
      ])

let build ops =
  let reg = Registry.create () in
  List.iter (apply_op reg) ops;
  reg

let prop_order_independent =
  QCheck.Test.make ~name:"to_json independent of insertion order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 40) (QCheck.make op_gen))
    (fun ops ->
      (* Reversal permutes cell creation order; a Meta conflict is the
         one non-commutative op, so keep last-write-wins pairs ordered
         by filtering metas down to at most one. *)
      let seen = ref false in
      let ops =
        List.filter
          (function
            | Meta _ ->
              if !seen then false
              else (
                seen := true;
                true)
            | Bump _ | Section _ -> true)
          ops
      in
      String.equal
        (Registry.to_json (build ops))
        (Registry.to_json (build (List.rev ops))))

(* {1 Spans} *)

let emit bus ~time ev attrs =
  Trace.emit bus ~time ~node:0 ~topic:`Lifecycle
    ~attrs:(("ev", ev) :: attrs)
    ev

let cs client seq =
  [ ("client", string_of_int client); ("seq", string_of_int seq) ]

let test_span_lifecycle () =
  let reg = Registry.create () in
  let bus = Registry.bus reg in
  let coll = Span.collect bus in
  (* Command (1000, 0): the full cross-epoch path. *)
  emit bus ~time:0.10 "submit" (cs 1000 0);
  emit bus ~time:0.20 "ordered" (cs 1000 0 @ [ ("epoch", "0"); ("idx", "5") ]);
  emit bus ~time:0.25 "residual" (cs 1000 0 @ [ ("epoch", "0"); ("idx", "5") ]);
  emit bus ~time:0.30 "resubmit" (cs 1000 0 @ [ ("from", "0"); ("to", "1") ]);
  emit bus ~time:0.40 "applied" (cs 1000 0 @ [ ("epoch", "1"); ("idx", "2") ]);
  emit bus ~time:0.45 "replied" (cs 1000 0);
  (* Duplicate transition: first observation must win. *)
  emit bus ~time:0.90 "applied" (cs 1000 0 @ [ ("epoch", "9"); ("idx", "9") ]);
  (* Command (1000, 1): submitted, retried, never resolved. *)
  emit bus ~time:0.50 "submit" (cs 1000 1);
  emit bus ~time:0.70 "retry" (cs 1000 1);
  match Span.finalize coll with
  | [ a; b ] ->
    Alcotest.(check int) "sorted by seq" 0 a.Span.sp_seq;
    Alcotest.(check string) "full path resolved" "replied"
      (Span.state_name (Span.state a));
    (match a.Span.sp_applied with
     | Some (epoch, time) ->
       Alcotest.(check int) "first applied wins (epoch)" 1 epoch;
       Alcotest.(check (float 1e-9)) "first applied wins (time)" 0.40 time
     | None -> Alcotest.fail "applied transition lost");
    (match a.Span.sp_resubmitted with
     | Some (f, t, _) ->
       Alcotest.(check (pair int int)) "resubmit epochs" (0, 1) (f, t)
     | None -> Alcotest.fail "resubmit transition lost");
    Alcotest.(check string) "in-flight span" "submitted"
      (Span.state_name (Span.state b));
    Alcotest.(check int) "retry counted" 1 b.Span.sp_retries;
    let s = Span.summarize [ a; b ] in
    Alcotest.(check int) "one resolved" 1 s.Span.sm_replied;
    Alcotest.(check int) "one unresolved" 1 s.Span.sm_unresolved;
    Alcotest.(check int) "cross-epoch detected" 1 s.Span.sm_cross_epoch;
    Alcotest.(check (float 1e-9)) "half resolved" 0.5
      (Span.resolved_fraction s);
    Alcotest.(check int) "handoff latency measured" 1
      (Histogram.count s.Span.sm_handoff);
    Alcotest.(check int) "no orphans" 0 (Span.orphans coll)
  | spans ->
    Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_orphans () =
  let reg = Registry.create () in
  let coll = Span.collect (Registry.bus reg) in
  emit (Registry.bus reg) ~time:0.1 "replied" (cs 7 3);
  emit (Registry.bus reg) ~time:0.2 "ordered" [ ("epoch", "0") ];
  Alcotest.(check int) "late attach + missing attrs counted" 2
    (Span.orphans coll);
  Alcotest.(check int) "late span still built" 1
    (List.length (Span.finalize coll))

(* {1 A real run end to end} *)

let test_crucible_run_resolves () =
  (* Seed 6 reconfigures three times, so the export must carry multiple
     epochs and the spans must cross them. *)
  let r = Runner.run Protocol.core (Generate.scenario ~seed:6) in
  let frac = Span.resolved_fraction r.Runner.spans in
  if frac < 0.99 then
    Alcotest.failf "only %.2f%% of spans resolved" (100.0 *. frac);
  Alcotest.(check bool) "every span observed" true
    (r.Runner.spans.Span.sm_total >= r.Runner.submitted);
  (* Per-node, per-epoch and per-message-type labels all present. *)
  let flat = Registry.flat_counters r.Runner.obs in
  let has key =
    List.exists (fun c -> List.mem_assoc key c.Registry.f_labels) flat
  in
  Alcotest.(check bool) "per-node series" true (has "node");
  Alcotest.(check bool) "per-epoch series" true (has "epoch");
  Alcotest.(check bool) "per-message-type series" true (has "msg_type");
  let epochs =
    List.sort_uniq String.compare
      (List.filter_map
         (fun c -> List.assoc_opt "epoch" c.Registry.f_labels)
         flat)
  in
  Alcotest.(check bool) "spans crossed epochs" true (List.length epochs > 1)

(* Every tagged send bumps "sent" and exactly one "sent.<tag>", and the
   byte counts alike; bench/e2e's control-byte arithmetic relies on it. *)
let test_net_tags_sum proto () =
  let r = Runner.run proto (Generate.scenario ~seed:0) in
  let net = Counters.to_list (Registry.counters r.Runner.obs "net") in
  let get k = Option.value (List.assoc_opt k net) ~default:0 in
  let sum prefix =
    List.fold_left
      (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
      0 net
  in
  Alcotest.(check bool) "messages were sent" true (get "sent" > 0);
  Alcotest.(check int) "sent = sum of sent.<tag>" (get "sent") (sum "sent.");
  Alcotest.(check int) "bytes_sent = sum of bytes.<tag>" (get "bytes_sent")
    (sum "bytes.")

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "cells are live" `Quick test_cells_are_live;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "scopes" `Quick test_scope;
          Alcotest.test_case "section view" `Quick test_section_view;
          Alcotest.test_case "section view is live" `Quick
            test_section_view_is_live;
          Alcotest.test_case "golden rsmr-metrics/1" `Quick test_golden_json;
          QCheck_alcotest.to_alcotest prop_order_independent;
        ] );
      ( "spans",
        [
          Alcotest.test_case "lifecycle stitching" `Quick test_span_lifecycle;
          Alcotest.test_case "orphans" `Quick test_span_orphans;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "crucible run resolves" `Quick
            test_crucible_run_resolves;
          Alcotest.test_case "net tags sum, composed" `Quick
            (test_net_tags_sum Protocol.core);
          Alcotest.test_case "net tags sum, raft" `Quick
            (test_net_tags_sum Protocol.raft);
        ] );
    ]
