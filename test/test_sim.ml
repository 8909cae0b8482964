(* Unit and property tests for the discrete-event substrate. *)

module Engine = Rsmr_sim.Engine
module Batch = Rsmr_sim.Batch
module Rng = Rsmr_sim.Rng
module Heap = Rsmr_sim.Heap
module Histogram = Rsmr_sim.Histogram
module Timeseries = Rsmr_sim.Timeseries
module Counters = Rsmr_sim.Counters
module Trace = Rsmr_sim.Trace
module Stable = Rsmr_sim.Stable
module Fnv = Rsmr_sim.Fnv

(* --- engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  let push tag () = order := tag :: !order in
  ignore (Engine.schedule e ~delay:0.3 (push "c"));
  ignore (Engine.schedule e ~delay:0.1 (push "a"));
  ignore (Engine.schedule e ~delay:0.2 (push "b"));
  Engine.run e;
  Alcotest.(check (list string)) "events in time order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule e ~delay:1.0 (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "simultaneous events keep FIFO order"
    [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule e ~delay:0.1 (fun () -> fired := true) in
  Engine.cancel e timer;
  Engine.run e;
  Alcotest.(check bool) "cancelled timer does not fire" false !fired

(* [slot <- cancel_opt e slot] clears the slot and cancels what it held;
   [armed] is true exactly for a slot holding a pending timer. *)
let test_engine_timer_slots () =
  let e = Engine.create () in
  let fired = ref false in
  let slot = Some (Engine.schedule e ~delay:0.1 (fun () -> fired := true)) in
  Alcotest.(check bool) "pending slot is armed" true (Engine.armed slot);
  Alcotest.(check bool) "cancel_opt clears the slot" true
    (Engine.cancel_opt e slot = None);
  Alcotest.(check bool) "cancelled timer is not armed" false (Engine.armed slot);
  Alcotest.(check bool) "cancel_opt of an empty slot" true
    (Engine.cancel_opt e None = None);
  Alcotest.(check bool) "empty slot is not armed" false (Engine.armed None);
  Engine.run e;
  Alcotest.(check bool) "cancelled timer never fires" false !fired;
  let done_ = Some (Engine.schedule e ~delay:0.1 ignore) in
  Engine.run e;
  Alcotest.(check bool) "fired timer is not armed" false (Engine.armed done_)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired))
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "only events before horizon run" 5 !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "remaining events run later" 10 !fired

(* Minor-heap words per call of [f], over many calls.  Gc.minor_words is
   unboxed in native code, so the probe itself allocates nothing. *)
let words_per_call f =
  f ();
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* Cancelled timers at the head of the queue are discarded, never run,
   and do not move the clock: [run], [run ~until] and [run_until] see
   the first live event behind them. *)
let test_engine_dead_heads_skipped () =
  let e = Engine.create () in
  let fired = ref [] in
  let at time tag =
    Engine.at e ~time (fun () -> fired := (tag, Engine.now e) :: !fired)
  in
  let dead = List.map (fun time -> at time "dead") [ 1.0; 2.0; 3.0 ] in
  ignore (at 4.0 "live");
  ignore (at 9.0 "late");
  List.iter (Engine.cancel e) dead;
  Alcotest.(check int) "two live timers" 2 (Engine.pending_count e);
  Alcotest.(check (option (float 0.))) "run_until reaches the live head"
    (Some 4.0)
    (Engine.run_until e ~pred:(fun () -> !fired <> []) ~deadline:5.0);
  Alcotest.(check (list (pair string (float 0.)))) "only the live event ran"
    [ ("live", 4.0) ] !fired;
  (* A dead head past the horizon: the clock still stops at [until]. *)
  Engine.cancel e (at 6.0 "dead");
  Engine.run ~until:7.5 e;
  Alcotest.(check (float 0.)) "clock at the horizon" 7.5 (Engine.now e);
  Alcotest.(check int) "nothing more ran" 1 (List.length !fired);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.)))) "the late event ran last"
    [ ("late", 9.0); ("live", 4.0) ] !fired;
  Alcotest.(check int) "queue drained" 0 (Engine.pending_count e);
  (* A horizon before every live event still advances the clock. *)
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:2.0 ignore);
  Engine.run ~until:1.25 e;
  Alcotest.(check (float 0.)) "idle horizon" 1.25 (Engine.now e);
  Alcotest.(check int) "event left queued" 1 (Engine.pending_count e)

(* The engine's per-event cost: one timer record and its boxed due time
   (7 words) for a schedule, nothing for reading and popping the head. *)
let test_engine_allocation () =
  let e = Engine.create () in
  let words =
    words_per_call (fun () ->
        ignore (Engine.schedule e ~delay:0.001 ignore);
        Engine.run e)
  in
  Alcotest.(check (float 0.)) "schedule + run, words" 7. words

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         hits := ("outer", Engine.now e) :: !hits;
         ignore
           (Engine.schedule e ~delay:0.5 (fun () ->
                hits := ("inner", Engine.now e) :: !hits))));
  Engine.run e;
  match List.rev !hits with
  | [ ("outer", t1); ("inner", t2) ] ->
    Alcotest.(check (float 1e-9)) "outer at 1.0" 1.0 t1;
    Alcotest.(check (float 1e-9)) "inner at 1.5" 1.5 t2
  | _ -> Alcotest.fail "unexpected event sequence"

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let t = ref (-1.0) in
  ignore (Engine.schedule e ~delay:5.0 (fun () ->
      ignore (Engine.schedule e ~delay:(-3.0) (fun () -> t := Engine.now e))));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "negative delay runs now" 5.0 !t

let test_engine_determinism () =
  let run () =
    let e = Engine.create ~seed:42 () in
    let rng = Rng.split (Engine.rng e) in
    let acc = ref [] in
    let rec step n =
      if n > 0 then
        ignore
          (Engine.schedule e ~delay:(Rng.float rng 1.0) (fun () ->
               acc := Engine.now e :: !acc;
               step (n - 1)))
    in
    step 50;
    Engine.run e;
    !acc
  in
  Alcotest.(check (list (float 0.0))) "same seed, same trajectory" (run ()) (run ())

(* Cancelling a timer from inside (or after) its own firing must be a
   no-op that leaves the timer [`Fired]: a heartbeat torn down from its
   own callback must not be reclassified as cancelled, or the model
   checker's enabled-set bookkeeping would see a choice both consumed
   and revoked. *)
let test_engine_cancel_after_fire () =
  let e = Engine.create () in
  let fired = ref 0 in
  let handle = ref None in
  let t =
    Engine.schedule e ~delay:0.1 (fun () ->
        incr fired;
        Option.iter (Engine.cancel e) !handle)
  in
  handle := Some t;
  Engine.run e;
  Alcotest.(check int) "fired exactly once" 1 !fired;
  Alcotest.(check bool) "state is `Fired after self-cancel" true
    (Engine.timer_state t = `Fired);
  Engine.cancel e t;
  Alcotest.(check bool) "state stays `Fired after late cancel" true
    (Engine.timer_state t = `Fired);
  Alcotest.(check int) "fired event still counted" 1 (Engine.events_executed e)

(* A zero-delay hand-off scheduled while the current instant's queue is
   non-empty must run after everything already queued for that instant,
   and two zero-delay hand-offs must run in scheduling order. *)
let test_engine_zero_delay_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  let push tag () = order := tag :: !order in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         push "first" ();
         ignore (Engine.schedule e ~delay:0.0 (push "handoff-a"));
         ignore (Engine.schedule e ~delay:0.0 (push "handoff-b"))));
  ignore (Engine.schedule e ~delay:1.0 (push "second"));
  Engine.run e;
  Alcotest.(check (list string))
    "zero-delay hand-off cannot jump the same-instant queue"
    [ "first"; "second"; "handoff-a"; "handoff-b" ]
    (List.rev !order)

(* Choice-point mode: [enabled] lists pending timers in run order,
   [fire] consumes exactly the chosen one (advancing time monotonically
   even when fired out of due order), and a consumed id is a stale
   choice thereafter. *)
let test_engine_enabled_fire () =
  let e = Engine.create () in
  let hits = ref [] in
  let ta = Engine.schedule e ~delay:0.3 (fun () -> hits := "a" :: !hits) in
  let tb = Engine.schedule e ~delay:0.1 (fun () -> hits := "b" :: !hits) in
  let tc = Engine.schedule e ~delay:0.2 (fun () -> hits := "c" :: !hits) in
  Engine.cancel e tc;
  Alcotest.(check (list int))
    "enabled = pending timers in (due, id) order"
    [ Engine.timer_id tb; Engine.timer_id ta ]
    (List.map fst (Engine.enabled e));
  Alcotest.(check int) "pending_count ignores the cancelled" 2
    (Engine.pending_count e);
  (* fire the LATER timer first: time jumps to 0.3 and never rewinds *)
  Alcotest.(check bool) "fire a" true (Engine.fire e ~seq:(Engine.timer_id ta));
  Alcotest.(check (float 1e-9)) "time at a's due" 0.3 (Engine.now e);
  Alcotest.(check bool) "fire b (past due)" true
    (Engine.fire e ~seq:(Engine.timer_id tb));
  Alcotest.(check (float 1e-9)) "time did not rewind" 0.3 (Engine.now e);
  Alcotest.(check (list string)) "callbacks ran in chosen order" [ "a"; "b" ]
    (List.rev !hits);
  Alcotest.(check bool) "consumed id is stale" false
    (Engine.fire e ~seq:(Engine.timer_id tb));
  Alcotest.(check bool) "cancelled id is stale" false
    (Engine.fire e ~seq:(Engine.timer_id tc));
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_count e)

(* --- rng --- *)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of bounds";
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of bounds";
    let i = Rng.int_in rng 3 7 in
    if i < 3 || i > 7 then Alcotest.fail "int_in out of bounds"
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_rng_deterministic () =
  let draws seed = List.init 100 (fun _ -> Rng.int (Rng.create seed) 1000) in
  Alcotest.(check (list int)) "same seed same draws" (draws 5) (draws 5)

(* The SplitMix64 stream: every run of every seed depends on these exact
   bits, so a change to how the state is kept must not move them.
   Per seed, three [bits64], then three [int 1000], then two
   [float 1.0] from the same generator. *)
let test_rng_pinned_stream () =
  let pinned =
    [
      ( 0,
        [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x6c45d188009454fL ],
        [ 732; 747; 186 ],
        [ 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ] );
      ( 1,
        [ 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L ],
        [ 292; 515; 782 ],
        [ 0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3 ] );
      ( 42,
        [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L ],
        [ 366; 847; 115 ],
        [ 0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3 ] );
    ]
  in
  List.iter
    (fun (seed, bits, ints, floats) ->
      let r = Rng.create seed in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check (list int64)) (name "bits64") bits
        (List.init 3 (fun _ -> Rng.bits64 r));
      Alcotest.(check (list int)) (name "int") ints
        (List.init 3 (fun _ -> Rng.int r 1000));
      Alcotest.(check (list (float 0.))) (name "float") floats
        (List.init 2 (fun _ -> Rng.float r 1.0)))
    pinned;
  (* [split] draws the child's state from the parent, which advances by
     one draw. *)
  let r = Rng.create 42 in
  let child = Rng.split r in
  Alcotest.(check int64) "split child" 0x5599b3e06d073327L (Rng.bits64 child);
  Alcotest.(check int64) "split parent" 0x290db4bf2570ded7L (Rng.bits64 r);
  let r = Rng.create 7 in
  Alcotest.(check (list bool)) "bernoulli 0.5, seed 7"
    [ false; true; false; false; false; true; true; false ]
    (List.init 8 (fun _ -> Rng.bernoulli r 0.5))

(* A draw that returns an immediate allocates nothing: the state is read
   and written unboxed. *)
let test_rng_allocation () =
  let r = Rng.create 3 in
  Alcotest.(check (float 0.)) "Rng.int" 0.
    (words_per_call (fun () -> ignore (Sys.opaque_identity (Rng.int r 100))));
  Alcotest.(check (float 0.)) "Rng.bernoulli" 0.
    (words_per_call (fun () ->
         ignore (Sys.opaque_identity (Rng.bernoulli r 0.5))));
  Alcotest.(check (float 0.)) "Rng.bool" 0.
    (words_per_call (fun () -> ignore (Sys.opaque_identity (Rng.bool r))))

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  if mean < 2.8 || mean > 3.2 then
    Alcotest.failf "exponential mean off: %f" mean

let test_rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation"
    (Array.init 50 Fun.id) sorted

(* --- heap --- *)

(* The key is kept in the payload as well, the way the engine keeps a
   timer's due time, so draining by [top]/[drop] can check the order. *)
let drain_heap h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let p = Heap.top h in
      Heap.drop h;
      go (p :: acc)
    end
  in
  go []

let test_heap_sorts () =
  let h = Heap.create ~dummy:nan in
  let rng = Rng.create 9 in
  for i = 0 to 199 do
    let time = Rng.float rng 100.0 in
    Heap.push h ~time ~seq:i time
  done;
  let drained = drain_heap h in
  Alcotest.(check int) "all elements drained" 200 (List.length drained);
  ignore
    (List.fold_left
       (fun last time ->
         if time < last then Alcotest.fail "heap pop not monotone";
         time)
       neg_infinity drained)

let prop_heap_pop_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_int))
    (fun items ->
      let h = Heap.create ~dummy:nan in
      List.iteri (fun i (time, _) -> Heap.push h ~time ~seq:i time) items;
      let rec check last = function
        | [] -> true
        | time :: rest -> time >= last && check time rest
      in
      check neg_infinity (drain_heap h))

(* [to_sorted_list] must observe the queue without draining it, in the
   exact order [top]/[drop] would, and [iter] must visit every live
   entry — the model checker's enabled-set enumeration depends on both. *)
let test_heap_observation () =
  let h = Heap.create ~dummy:(-1) in
  let rng = Rng.create 11 in
  for i = 0 to 49 do
    Heap.push h ~time:(Rng.float rng 10.0) ~seq:i i
  done;
  let snapshot = Heap.to_sorted_list h in
  Alcotest.(check int) "snapshot is complete" 50 (List.length snapshot);
  Alcotest.(check int) "snapshot did not drain" 50 (Heap.size h);
  let seen = ref 0 in
  Heap.iter h (fun _ _ _ -> incr seen);
  Alcotest.(check int) "iter visits every live entry" 50 !seen;
  Alcotest.(check (list int)) "snapshot order = drain order"
    (List.map (fun (_, _, p) -> p) snapshot)
    (drain_heap h)

(* --- histogram --- *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record h (float_of_int i /. 1000.0)
  done;
  let p50 = Histogram.percentile h 50.0 in
  let p99 = Histogram.percentile h 99.0 in
  if abs_float (p50 -. 0.5) > 0.03 then Alcotest.failf "p50 off: %f" p50;
  if abs_float (p99 -. 0.99) > 0.05 then Alcotest.failf "p99 off: %f" p99;
  Alcotest.(check int) "count" 1000 (Histogram.count h)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "empty p99 is 0" 0.0 (Histogram.percentile h 99.0);
  Alcotest.(check (float 0.0)) "empty mean is 0" 0.0 (Histogram.mean h)

let prop_histogram_percentile_in_range =
  QCheck.Test.make ~name:"every percentile lies in [min, max]" ~count:500
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 100)
           (oneof [ float_bound_exclusive 10.0; oneofl [ 0.0; 1.0; 2.5 ] ]))
        (oneof [ float_range 0.001 100.0; oneofl [ 1.0; 50.0; 99.0; 100.0 ] ]))
    (fun (values, p) ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) values;
      let v = Histogram.percentile h p in
      Histogram.min_value h <= v && v <= Histogram.max_value h)

(* --- timeseries --- *)

let test_timeseries_buckets () =
  let ts = Timeseries.create () in
  Timeseries.add ts ~time:0.1 1.0;
  Timeseries.add ts ~time:0.2 3.0;
  Timeseries.add ts ~time:1.5 10.0;
  (match Timeseries.bucketize ts ~width:1.0 with
   | [ (s0, c0, m0); (s1, c1, m1) ] ->
     Alcotest.(check (float 1e-9)) "bucket 0 start" 0.0 s0;
     Alcotest.(check int) "bucket 0 count" 2 c0;
     Alcotest.(check (float 1e-9)) "bucket 0 mean" 2.0 m0;
     Alcotest.(check (float 1e-9)) "bucket 1 start" 1.0 s1;
     Alcotest.(check int) "bucket 1 count" 1 c1;
     Alcotest.(check (float 1e-9)) "bucket 1 mean" 10.0 m1
   | l -> Alcotest.failf "expected 2 buckets, got %d" (List.length l));
  match Timeseries.max_in_window ts ~lo:0.0 ~hi:1.0 with
  | Some m -> Alcotest.(check (float 1e-9)) "window max" 3.0 m
  | None -> Alcotest.fail "expected a max"

(* The list-of-pairs series that [Timeseries] replaced, newest first:
   the executable specification of its readers. *)
module Ts_model = struct
  let bucketize rev_points ~width =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (time, v) ->
        let b = int_of_float (floor (time /. width)) in
        match Hashtbl.find_opt tbl b with
        | Some (c, s) -> Hashtbl.replace tbl b (c + 1, s +. v)
        | None -> Hashtbl.add tbl b (1, v))
      rev_points;
    Hashtbl.fold (fun b (c, s) acc -> (b, c, s) :: acc) tbl []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    |> List.map (fun (b, c, s) ->
           (float_of_int b *. width, c, s /. float_of_int c))

  let max_in_window rev_points ~lo ~hi =
    List.fold_left
      (fun acc (time, v) ->
        if time >= lo && time <= hi then
          match acc with Some m when m >= v -> acc | _ -> Some v
        else acc)
      None rev_points
end

(* Bit for bit: floats compare by their IEEE bits. *)
let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)

let same_buckets a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s, c, m) (s', c', m') ->
         same_float s s' && c = c' && same_float m m')
       a b

let prop_timeseries_matches_model =
  let value =
    QCheck.Gen.(
      frequency
        [
          (8, float_range (-1000.0) 1000.0);
          (1, oneofl [ 0.0; -0.0; nan; infinity; 1e-300 ]);
        ])
  in
  QCheck.Test.make ~name:"timeseries matches its list model" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 0 300) (pair (float_range 0.0 20.0) value))
           (pair (float_range 0.1 3.0) (float_range 0.0 20.0))))
    (fun (samples, (width, lo)) ->
      let ts = Timeseries.create () in
      List.iter (fun (time, v) -> Timeseries.add ts ~time v) samples;
      let rev = List.rev samples in
      let hi = lo +. width in
      List.length (Timeseries.points ts) = List.length samples
      && List.for_all2
           (fun (t, v) (t', v') -> same_float t t' && same_float v v')
           (Timeseries.points ts) samples
      && same_buckets (Timeseries.bucketize ts ~width)
           (Ts_model.bucketize rev ~width)
      && List.for_all2
           (fun (s, r) (s', r') -> same_float s s' && same_float r r')
           (Timeseries.rate_per_bucket ts ~width)
           (List.map
              (fun (s, c, _) -> (s, float_of_int c /. width))
              (Ts_model.bucketize rev ~width))
      &&
      match
        ( Timeseries.max_in_window ts ~lo ~hi,
          Ts_model.max_in_window rev ~lo ~hi )
      with
      | Some a, Some b -> same_float a b
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* Within capacity a sample is two unboxed float stores. *)
let test_timeseries_add_allocates_nothing () =
  let ts = Timeseries.create () in
  Timeseries.add ts ~time:0.5 1.0;
  let before = Gc.minor_words () in
  for _ = 1 to 60 do
    Timeseries.add ts ~time:0.5 1.0
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all kept" 61 (List.length (Timeseries.points ts));
  Alcotest.(check (float 0.)) "words for 60 adds" 0. words

(* A section view over labelled registry cells: only cells labelled
   exactly {section} or {msg_type; section} show, sorted by key. *)
let test_counters () =
  let reg = Rsmr_obs.Registry.create () in
  let cell ?(labels = []) name =
    Rsmr_obs.Registry.counter reg ~labels:(("section", "s") :: labels) name
  in
  let b = cell "b" and a = cell "a" in
  a := 5;
  b := 1;
  let m = cell ~labels:[ ("msg_type", "x.y") ] "a" in
  m := 2;
  let other = Rsmr_obs.Registry.counter reg ~labels:[ ("section", "t") ] "a" in
  other := 9;
  let extra =
    Rsmr_obs.Registry.counter reg ~labels:[ ("node", "1"); ("section", "s") ] "a"
  in
  extra := 7;
  let c = Rsmr_obs.Registry.counters reg "s" in
  Alcotest.(check int) "a" 5 (Counters.get c "a");
  Alcotest.(check int) "b" 1 (Counters.get c "b");
  Alcotest.(check int) "dotted msg_type key" 2 (Counters.get c "a.x.y");
  Alcotest.(check int) "missing" 0 (Counters.get c "zzz");
  Alcotest.(check (list (pair string int))) "to_list sorted"
    [ ("a", 5); ("a.x.y", 2); ("b", 1) ] (Counters.to_list c);
  Alcotest.(check string) "pp" "a=5, a.x.y=2, b=1"
    (Format.asprintf "%a" Counters.pp c)

let test_trace_counts_and_retention () =
  let tr = Trace.create () in
  let seen = ref 0 in
  Trace.subscribe tr (fun _ -> incr seen);
  Trace.emit tr ~time:1.0 ~node:0 ~topic:(`Other "x") "one";
  Trace.keep tr true;
  Trace.emit tr ~time:2.0 ~node:1 ~topic:(`Other "x")
    ~attrs:[ ("k", "v") ] "two";
  Trace.emit tr ~time:3.0 ~node:1 ~topic:`Lifecycle "three";
  Alcotest.(check int) "subscriber saw all" 3 !seen;
  Alcotest.(check int) "topic x count" 2 (Trace.count tr ~topic:(`Other "x"));
  Alcotest.(check int) "lifecycle count" 1 (Trace.count tr ~topic:`Lifecycle);
  Alcotest.(check int) "retained only after keep" 2
    (List.length (Trace.events tr));
  (match Trace.events tr with
   | ev :: _ ->
     Alcotest.(check (option string)) "attr lookup" (Some "v")
       (Trace.attr ev "k")
   | [] -> Alcotest.fail "expected retained events");
  Alcotest.(check bool) "active with subscriber" true (Trace.active tr);
  Alcotest.(check bool) "fresh bus inactive" false
    (Trace.active (Trace.create ()))

(* --- stable (sorted hash-table iteration) --- *)

let table_of bindings =
  let t = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) bindings;
  t

let test_stable_sorted_order () =
  (* Iteration order must be the sorted key order regardless of the
     insertion history that shaped the buckets. *)
  let bindings = List.map (fun k -> (k, 10 * k)) [ 42; 7; 19; 3; 100; 56 ] in
  let forwards = table_of bindings and backwards = table_of (List.rev bindings) in
  let visit t =
    let acc = ref [] in
    Stable.iter_sorted ~compare:Int.compare
      (fun k v -> acc := (k, v) :: !acc)
      t;
    List.rev !acc
  in
  let expected = List.sort (fun (a, _) (b, _) -> Int.compare a b) bindings in
  Alcotest.(check (list (pair int int))) "sorted ascending" expected
    (visit forwards);
  Alcotest.(check (list (pair int int)))
    "independent of insertion order" (visit forwards) (visit backwards);
  Alcotest.(check (list int))
    "sorted_keys agrees" (List.map fst expected)
    (Stable.sorted_keys ~compare:Int.compare forwards)

let test_stable_fold_order () =
  (* fold_sorted must present keys ascending: a fold that appends sees the
     sorted sequence, and a non-commutative fold is reproducible. *)
  let t = table_of [ (3, "c"); (1, "a"); (2, "b") ] in
  Alcotest.(check (list int)) "fold visits ascending" [ 1; 2; 3 ]
    (List.rev (Stable.fold_sorted ~compare:Int.compare (fun k _ acc -> k :: acc) t []));
  Alcotest.(check string) "non-commutative fold reproducible" "abc"
    (Stable.fold_sorted ~compare:Int.compare (fun _ v acc -> acc ^ v) t "")

let test_stable_no_revisit_of_added_keys () =
  (* Keys added during iteration are not visited (the key list is
     snapshotted first), so iteration cannot diverge. *)
  let t = table_of [ (1, "a"); (2, "b") ] in
  let visited = ref [] in
  Stable.iter_sorted ~compare:Int.compare
    (fun k _ ->
      visited := k :: !visited;
      if k = 1 then Hashtbl.replace t 99 "late")
    t;
  Alcotest.(check (list int)) "snapshot semantics" [ 1; 2 ]
    (List.rev !visited);
  Alcotest.(check bool) "late key present afterwards" true
    (Hashtbl.mem t 99)

(* --- Fnv --- *)

let test_fnv_combine_int_edges () =
  let h = Fnv.hash "seed" in
  List.iter
    (fun n ->
      Alcotest.(check int64) (string_of_int n)
        (Fnv.combine h (string_of_int n))
        (Fnv.combine_int h n))
    [ 0; 9; 10; 99; 100; -1; -10; max_int; min_int ]

let prop_fnv_combine_int =
  QCheck.Test.make ~name:"combine_int = combine of string_of_int" ~count:2000
    QCheck.(pair int64 int)
    (fun (h, n) -> Fnv.combine_int h n = Fnv.combine h (string_of_int n))

let prop_fnv_combine_int_framed =
  QCheck.Test.make ~name:"combine_int_framed = its unfused chain" ~count:2000
    QCheck.(triple int64 int string)
    (fun (h, n, s) ->
      Fnv.combine_int_framed h n s
      = Fnv.combine_framed (Fnv.combine_int h n) s)

(* --- Batch: the submission batcher against a plain-list model --- *)

type batch_op =
  | Add
  | Push
  | Take of int
  | Drain
  | Pump
  | Fire  (* run the engine: the window timer fires if armed *)
  | Cancel

let pp_batch_op = function
  | Add -> "add"
  | Push -> "push"
  | Take c -> Printf.sprintf "take %d" c
  | Drain -> "drain"
  | Pump -> "pump"
  | Fire -> "fire"
  | Cancel -> "cancel"

(* [delay] is 0 (no window) or positive, [max] the flush threshold,
   [flush_cap] what the owner's flush takes (0: a full pipeline). *)
let batch_trace_arb =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, return Add);
        (2, return Push);
        (2, map (fun c -> Take c) (int_range (-1) 4));
        (1, return Drain);
        (2, return Pump);
        (3, return Fire);
        (1, return Cancel);
      ]
  in
  QCheck.make
    ~print:(fun (delay, max, cap, ops) ->
      Printf.sprintf "delay=%g max=%d flush_cap=%d [%s]" delay max cap
        (String.concat "; " (List.map pp_batch_op ops)))
    (quad (oneofl [ 0.0; 0.001 ]) (int_range 1 4) (int_range 0 3)
       (list_size (int_range 0 40) op))

let prop_batch_model =
  QCheck.Test.make ~name:"batch matches a list model" ~count:500
    batch_trace_arb (fun (delay, max, flush_cap, ops) ->
      let e = Engine.create () in
      let taken = ref [] (* newest first *) in
      let cap_ok = ref true in
      let take_into b cap =
        let xs = Batch.take b cap in
        if List.length xs > Stdlib.max cap 0 then cap_ok := false;
        taken := List.rev_append xs !taken
      in
      let self = ref None in
      let b =
        Batch.create e ~delay ~max ~flush:(fun () ->
            Option.iter (fun b -> take_into b flush_cap) !self)
      in
      self := Some b;
      (* the model: buffer oldest first, timer armed, values taken *)
      let m_buf = ref [] and m_armed = ref false and m_taken = ref [] in
      let m_take cap =
        if cap > 0 then begin
          let rec split n = function
            | x :: tl when n > 0 ->
              let a, r = split (n - 1) tl in
              (x :: a, r)
            | l -> ([], l)
          in
          let out, rest = split cap !m_buf in
          m_buf := rest;
          m_armed := false;
          m_taken := !m_taken @ out
        end
      in
      let m_flush () = m_take flush_cap in
      let next = ref 0 and added = ref [] in
      let fresh () =
        incr next;
        added := !added @ [ !next ];
        !next
      in
      let agree = ref true in
      List.iter
        (fun op ->
          (match op with
           | Add ->
             let x = fresh () in
             m_buf := !m_buf @ [ x ];
             if delay <= 0.0 || List.length !m_buf >= max then m_flush ()
             else m_armed := true;
             Batch.add b x
           | Push ->
             let x = fresh () in
             m_buf := !m_buf @ [ x ];
             Batch.push b x
           | Take cap ->
             m_take cap;
             take_into b cap
           | Drain ->
             m_take max_int;
             taken := List.rev_append (Batch.drain b) !taken
           | Pump ->
             if !m_buf <> [] && not !m_armed then m_flush ();
             Batch.pump b
           | Fire ->
             if !m_armed then begin
               m_armed := false;
               m_flush ()
             end;
             Engine.run e
           | Cancel ->
             m_armed := false;
             Batch.cancel b);
          let contents = List.rev (Batch.contents b) in
          if
            contents <> !m_buf
            || Batch.armed b <> !m_armed
            || Batch.armed b <> (Engine.pending_count e > 0)
            || List.rev !taken <> !m_taken
            (* order: what left plus what stays is what came in *)
            || List.rev !taken @ contents <> !added
          then agree := false)
        ops;
      !agree && !cap_ok)

(* The batcher's own per-value cost is its list cells: one cons on add,
   one in the taken run.  Measured as the difference between a 65-value
   and a 1-value window, so the per-window timer is not counted. *)
let test_batch_alloc () =
  let e = Engine.create () in
  let b = Batch.create e ~delay:0.001 ~max:max_int ~flush:ignore in
  let cycle n =
    for i = 1 to n do
      Batch.add b i
    done;
    ignore (Batch.take b max_int);
    (* pop the cancelled timer so the heap never grows *)
    Engine.run e
  in
  let words n =
    cycle n;
    let before = Gc.minor_words () in
    cycle n;
    Gc.minor_words () -. before
  in
  let one = words 1 and many = words 65 in
  Alcotest.(check bool)
    (Printf.sprintf "64 extra values cost %.0f words <= 2 cells each"
       (many -. one))
    true
    (many -. one <= float_of_int (64 * 2 * 3))

(* --- Batch against the old list batcher (test/batch_model.ml) ---

   The same trace drives the FIFO and the model, each on its own engine,
   plus membership probes; every result, the buffer, the timer and what
   each flush took must agree, and what left plus what stays must be
   what came in, in order. *)

type model_op = Op of batch_op | Mem of int

let model_trace_arb =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, return (Op Add));
        (3, return (Op Push));
        (3, map (fun c -> Op (Take c)) (int_range (-1) 5));
        (1, return (Op Drain));
        (2, return (Op Pump));
        (2, return (Op Fire));
        (1, return (Op Cancel));
        (2, map (fun x -> Mem x) (int_range 0 60));
      ]
  in
  QCheck.make
    ~print:(fun (delay, max, cap, ops) ->
      Printf.sprintf "delay=%g max=%d flush_cap=%d [%s]" delay max cap
        (String.concat "; "
           (List.map
              (function
                | Op o -> pp_batch_op o | Mem x -> Printf.sprintf "mem %d" x)
              ops)))
    (quad (oneofl [ 0.0; 0.001 ]) (int_range 1 6) (int_range 0 3)
       (list_size (int_range 0 60) op))

let prop_batch_old_model =
  QCheck.Test.make ~name:"batch matches the old list batcher" ~count:500
    model_trace_arb (fun (delay, max, flush_cap, ops) ->
      let e = Engine.create () and me = Engine.create () in
      (* what each side's takes returned, newest first *)
      let got = ref [] and want = ref [] in
      let self = ref None and m_self = ref None in
      let b =
        Batch.create e ~delay ~max ~flush:(fun () ->
            Option.iter
              (fun b -> got := List.rev_append (Batch.take b flush_cap) !got)
              !self)
      in
      let m =
        Batch_model.create me ~delay ~max ~flush:(fun () ->
            Option.iter
              (fun m ->
                want := List.rev_append (Batch_model.take m flush_cap) !want)
              !m_self)
      in
      self := Some b;
      m_self := Some m;
      let next = ref 0 in
      let both f g x = f b x; g m x in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Op Add ->
              incr next;
              both Batch.add Batch_model.add !next;
              true
            | Op Push ->
              incr next;
              both Batch.push Batch_model.push !next;
              true
            | Op (Take cap) ->
              let xs = Batch.take b cap and ys = Batch_model.take m cap in
              got := List.rev_append xs !got;
              want := List.rev_append ys !want;
              xs = ys
            | Op Drain ->
              let xs = Batch.drain b and ys = Batch_model.drain m in
              got := List.rev_append xs !got;
              want := List.rev_append ys !want;
              xs = ys
            | Op Pump ->
              Batch.pump b;
              Batch_model.pump m;
              true
            | Op Fire ->
              Engine.run e;
              Engine.run me;
              true
            | Op Cancel ->
              Batch.cancel b;
              Batch_model.cancel m;
              true
            | Mem x ->
              Batch.mem ~equal:Int.equal x b
              = Batch_model.mem ~equal:Int.equal x m
          in
          let contents = Batch.contents b in
          same
          && contents = Batch_model.contents m
          && Batch.armed b = Batch_model.armed m
          && !got = !want
          && List.rev_append !got (List.rev contents)
             = List.init !next (fun i -> i + 1))
        ops)

(* A backlog drained one value at a time, as a leader whose pipeline
   frees one slot per commit drains it: each take costs its result and,
   amortized, one reversed cell, never the values that stay (the list
   batcher copied them twice per take, quadratic in the backlog). *)
let test_batch_backlog_alloc () =
  List.iter
    (fun n ->
      let e = Engine.create () in
      let b = Batch.create e ~delay:0.001 ~max:max_int ~flush:ignore in
      let before = Gc.minor_words () in
      for i = 1 to n do
        Batch.push b i
      done;
      for _ = 1 to n do
        ignore (Batch.take b 1)
      done;
      let per_value = (Gc.minor_words () -. before) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%d values pushed then taken one by one: %.1f words \
                         each <= 16"
           n per_value)
        true (per_value <= 16.0))
    [ 1_000; 10_000 ]

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "timer slots: cancel_opt, armed" `Quick
            test_engine_timer_slots;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "dead heads are skipped" `Quick
            test_engine_dead_heads_skipped;
          Alcotest.test_case "per-event allocation" `Quick
            test_engine_allocation;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick
            test_engine_negative_delay_clamped;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "cancel after fire is a no-op" `Quick
            test_engine_cancel_after_fire;
          Alcotest.test_case "zero-delay hand-off keeps FIFO" `Quick
            test_engine_zero_delay_fifo;
          Alcotest.test_case "enabled/fire choice-point mode" `Quick
            test_engine_enabled_fire;
        ] );
      ( "rng",
        [
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "determinism" `Quick test_rng_deterministic;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_allocation;
        ] );
      ( "batch",
        [
          QCheck_alcotest.to_alcotest prop_batch_model;
          Alcotest.test_case "add/take allocates only list cells" `Quick
            test_batch_alloc;
          QCheck_alcotest.to_alcotest prop_batch_old_model;
          Alcotest.test_case "a backlog taken one by one is linear" `Quick
            test_batch_backlog_alloc;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "observation without draining" `Quick
            test_heap_observation;
          QCheck_alcotest.to_alcotest prop_heap_pop_sorted;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          QCheck_alcotest.to_alcotest prop_histogram_percentile_in_range;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "buckets" `Quick test_timeseries_buckets;
          QCheck_alcotest.to_alcotest prop_timeseries_matches_model;
          Alcotest.test_case "add allocates nothing" `Quick
            test_timeseries_add_allocates_nothing;
        ] );
      ( "stable",
        [
          Alcotest.test_case "sorted order" `Quick test_stable_sorted_order;
          Alcotest.test_case "fold order" `Quick test_stable_fold_order;
          Alcotest.test_case "snapshot semantics" `Quick
            test_stable_no_revisit_of_added_keys;
        ] );
      ( "fnv",
        [
          Alcotest.test_case "combine_int edge values" `Quick
            test_fnv_combine_int_edges;
          QCheck_alcotest.to_alcotest prop_fnv_combine_int;
          QCheck_alcotest.to_alcotest prop_fnv_combine_int_framed;
        ] );
      ("counters", [ Alcotest.test_case "basic" `Quick test_counters ]);
      ( "trace",
        [ Alcotest.test_case "counts+retention" `Quick test_trace_counts_and_retention ]
      );
    ]
