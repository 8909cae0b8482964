module Rng = Rsmr_sim.Rng

(* Times are quantized to milliseconds and probabilities to hundredths so
   the scenario's compact text form round-trips exactly. *)
let time_in rng lo hi =
  let lo = int_of_float (lo *. 1000.) and hi = int_of_float (hi *. 1000.) in
  float_of_int (Rng.int_in rng lo (max lo hi)) /. 1000.

let sec ms = float_of_int ms /. 1000.

let prob_in rng lo hi =
  let lo = int_of_float (lo *. 100.) and hi = int_of_float (hi *. 100.) in
  float_of_int (Rng.int_in rng lo (max lo hi)) /. 100.

let pick_config rng ~universe ~size =
  let arr = Array.of_list universe in
  Rng.shuffle rng arr;
  Array.to_list (Array.sub arr 0 (min size (Array.length arr)))
  |> List.sort Int.compare

(* A two-way split of the universe with both sides non-empty. *)
let pick_partition rng universe =
  let left, right =
    List.partition_map
      (fun n -> if Rng.bool rng then Either.Left n else Either.Right n)
      universe
  in
  match (left, right) with
  | [], x :: rest | x :: rest, [] -> [ [ x ]; rest ]
  | left, right -> [ left; right ]

(* A scenario whose fault script [script emit] writes, in any order. *)
let scripted ~seed ~shape ~n_clients ~duration script =
  let events = ref [] in
  script (fun at fault -> events := { Scenario.at; fault } :: !events);
  {
    Scenario.seed;
    shape;
    n_clients;
    duration;
    events = Scenario.sort_events (List.rev !events);
  }

(* The single-service families' shape, clients and window, drawn first
   from the seed; [script] draws the faults from the same stream. *)
let service ~seed script =
  let rng = Rng.create ((seed * 2) + 1) in
  let size = if Rng.int rng 4 < 3 then 3 else 5 in
  let universe = List.init (size + 2 + Rng.int rng 3) Fun.id in
  let n_clients = 2 + Rng.int rng 2 in
  let duration = time_in rng 1.5 2.5 in
  scripted ~seed
    ~shape:(Scenario.Service { members = List.init size Fun.id; universe })
    ~n_clients ~duration
    (script rng ~size ~universe ~duration)

let scenario ~seed =
  service ~seed (fun rng ~size ~universe ~duration emit ->
      let horizon rng at = min duration (at +. time_in rng 0.2 1.2) in
      for _ = 1 to Rng.int rng 9 do
        let at = time_in rng 0.3 duration in
        match Rng.int rng 6 with
        | 0 ->
          let node = Rng.pick rng universe in
          emit at (Scenario.Crash node);
          emit (horizon rng at) (Scenario.Recover node)
        | 1 ->
          emit at (Scenario.Partition (pick_partition rng universe));
          emit (horizon rng at) Scenario.Heal
        | 2 ->
          let src = Rng.pick rng universe in
          let dst = Rng.pick rng (List.filter (fun n -> n <> src) universe) in
          emit at
            (Scenario.Link_fault
               { src; dst; drop = (if Rng.bool rng then 1.0 else 0.5) });
          emit (horizon rng at) Scenario.Clear_links
        | 3 ->
          emit at (Scenario.Duplicate (prob_in rng 0.3 1.0));
          emit (horizon rng at) (Scenario.Duplicate 0.0)
        | 4 ->
          emit at (Scenario.Drop (prob_in rng 0.05 0.3));
          emit (horizon rng at) (Scenario.Drop 0.0)
        | _ ->
          let target = pick_config rng ~universe ~size in
          emit at (Scenario.Reconfigure target);
          (* Back-to-back churn: a second membership change lands while
             (or right after) the first is still being installed —
             including at the exact same instant, the concurrent-Reconfig
             case the first-wedge-wins guard exists for. *)
          if Rng.int rng 3 = 0 then begin
            let target' = pick_config rng ~universe ~size in
            emit (at +. time_in rng 0.0 0.2) (Scenario.Reconfigure target')
          end
      done)

(* Reconfiguration-heavy scenarios: every event slot is a membership
   change (often back-to-back), with a thin garnish of crashes and loss so
   the handoff machinery — not the fault model — is what's being soaked.
   This is the family the per-strategy churn soak runs over. *)
let reconf_churn_scenario ~seed =
  service ~seed (fun rng ~size ~universe ~duration emit ->
      for _ = 1 to 3 + Rng.int rng 4 do
        let at = time_in rng 0.3 duration in
        let target = pick_config rng ~universe ~size in
        emit at (Scenario.Reconfigure target);
        (* Half the changes get a chaser inside the install window, so
           the first-wedge-wins path and provisional teardown both fire. *)
        if Rng.bool rng then begin
          let target' = pick_config rng ~universe ~size in
          emit (at +. time_in rng 0.0 0.2) (Scenario.Reconfigure target')
        end
      done;
      match Rng.int rng 3 with
      | 0 ->
        let node = Rng.pick rng universe in
        let at = time_in rng 0.3 duration in
        emit at (Scenario.Crash node);
        emit (min duration (at +. time_in rng 0.2 0.8)) (Scenario.Recover node)
      | 1 ->
        let at = time_in rng 0.3 duration in
        emit at (Scenario.Drop (prob_in rng 0.05 0.2));
        emit (min duration (at +. time_in rng 0.2 0.8)) (Scenario.Drop 0.0)
      | _ -> ())

(* --- the sharded platform ---

   Two shards of three over a six-machine pool, the replicated directory
   on three of them, four clients.  Times are whole milliseconds, drawn
   as integers so that sums stay exact. *)

let pool = [ 0; 1; 2; 3; 4; 5 ]
let dir = [ 0; 2; 4 ]

let platform ~seed ~quick script =
  let d = if quick then 2800 else 5800 in
  scripted ~seed
    ~shape:
      (Scenario.Platform { pool; shards = [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]; dir })
    ~n_clients:4 ~duration:(sec d)
    (fun emit -> script ~d (fun ms fault -> emit (sec ms) fault))

let dir_churn_scenario ~quick ~seed =
  let rng = Rng.create ((seed * 2) + 1) in
  platform ~seed ~quick (fun ~d emit ->
      (* One machine down at a time, so every shard and the directory
         keep a live quorum (tolerance, not availability, testing). *)
      let t = ref 400 in
      while !t < d - 1200 do
        let node = Rng.pick rng pool in
        let up = !t + Rng.int_in rng 300 1000 in
        emit !t (Scenario.Crash node);
        emit up (Scenario.Recover node);
        t := up + Rng.int_in rng 200 1000
      done;
      (* Overlapping those: one directory replica cut off, or the whole
         directory blacked out (consistent but unreachable). *)
      for _ = 1 to 1 + Rng.int rng 2 do
        let t0 = Rng.int_in rng 600 (600 + max 500 (d - 1800)) in
        let heal = t0 + Rng.int_in rng 500 1500 in
        emit t0
          (Scenario.Isolate_dir
             (if Rng.bool rng then dir else [ Rng.pick rng dir ]));
        emit heal Scenario.Heal
      done;
      (* Rolling rebalances while the above is in flight. *)
      for i = 0 to Rng.int rng 2 do
        let t0 = Rng.int_in rng 700 (700 + max 500 (d - 2200)) in
        emit t0 (Scenario.Rebalance ((i + Rng.int rng 2) mod 2))
      done)

(* Black the directory out, then rebalance both shards under it so
   every client's cached configuration goes stale mid-flight: the
   endpoints must ride redirect hints with bounded traffic and drain
   once the directory heals. *)
let storm_scenario ~quick =
  let t0 = if quick then 600 else 800 in
  platform ~seed:424 ~quick (fun ~d:_ emit ->
      emit t0 (Scenario.Isolate_dir dir);
      emit (t0 + 200) (Scenario.Rebalance 0);
      emit (t0 + 400) (Scenario.Rebalance 1);
      emit (t0 + if quick then 1200 else 2000) Scenario.Heal)
