(* Timer lifecycle is a one-way tri-state machine:

     Pending --cancel--> Cancelled
     Pending --fire----> Fired

   [Fired] and [Cancelled] are terminal and distinct: cancelling a timer
   that has already run is a no-op that does NOT reclassify it, so
   callers (and the model checker's enabled-set) can always tell "this
   event happened" from "this event was suppressed".  Heap entries for
   non-pending timers are inert and discarded lazily. *)

type timer_state = Pending | Fired | Cancelled

type timer = {
  mutable state : timer_state;
  cb : unit -> unit;
  id : int;
  due : float; (* absolute virtual time, already clamped to >= now *)
}

type t = {
  mutable time : float;
  mutable seq : int;
  queue : timer Heap.t;
  root_rng : Rng.t;
  mutable executed : int;
  mutable pending : int;
      (* live [Pending] timers in [queue]; drives lazy compaction so
         choice-mode runs (which never pop) do not accrete dead
         entries without bound *)
}

(* Fills the heap's vacated slots; never scheduled, so never run. *)
let no_timer = { state = Cancelled; cb = ignore; id = 0; due = infinity }

let create ?(seed = 1) () =
  {
    time = 0.0;
    seq = 0;
    queue = Heap.create ~dummy:no_timer;
    root_rng = Rng.create seed;
    executed = 0;
    pending = 0;
  }

let now t = t.time
let rng t = t.root_rng

let at t ~time f =
  let time = if time < t.time then t.time else time in
  t.seq <- t.seq + 1;
  let timer = { state = Pending; cb = f; id = t.seq; due = time } in
  Heap.push t.queue ~time ~seq:t.seq timer;
  t.pending <- t.pending + 1;
  timer

let schedule t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  at t ~time:(t.time +. delay) f

let cancel t timer =
  if timer.state = Pending then begin
    timer.state <- Cancelled;
    t.pending <- t.pending - 1
  end

let is_pending timer = timer.state = Pending

let cancel_opt t slot =
  (match slot with Some timer -> cancel t timer | None -> ());
  None

let armed slot = match slot with Some timer -> is_pending timer | None -> false

let timer_state timer =
  match timer.state with
  | Pending -> `Pending
  | Fired -> `Fired
  | Cancelled -> `Cancelled

let timer_id timer = timer.id

let run_timer t timer =
  timer.state <- Fired;
  t.pending <- t.pending - 1;
  t.executed <- t.executed + 1;
  timer.cb ()

(* Pop and run the head, which [live_head] found pending.  It is read as
   [Heap.top], with no option or tuple per event, and its key is
   [timer.due], so the clock takes the timer's own boxed float. *)
let fire_head t =
  let timer = Heap.top t.queue in
  Heap.drop t.queue;
  t.time <- timer.due;
  run_timer t timer

(* Discard dead timers at the head; true when a live one is left there
   (then it is [Heap.top t.queue]). *)
let rec live_head t =
  if Heap.is_empty t.queue then false
  else if (Heap.top t.queue).state = Pending then true
  else begin
    Heap.drop t.queue;
    live_head t
  end

let run ?until t =
  let continue = ref true in
  while !continue && live_head t do
    match until with
    | Some u when (Heap.top t.queue).due > u ->
      (* Advance the clock to the horizon so repeated bounded runs
         observe monotonic time, but leave the event queued. *)
      t.time <- u;
      continue := false
    | Some _ | None -> fire_head t
  done

let events_executed t = t.executed
let pending_count t = t.pending

let run_until t ~pred ~deadline =
  let rec loop () =
    if pred () then Some t.time
    else if not (live_head t) then None
    else if (Heap.top t.queue).due > deadline then begin
      t.time <- deadline;
      None
    end
    else begin
      fire_head t;
      loop ()
    end
  in
  loop ()

let rec settle t ~pred ~hold ~deadline =
  t.time < deadline
  &&
  match run_until t ~pred ~deadline with
  | None -> false
  | Some at ->
    run ~until:(at +. hold) t;
    pred () || settle t ~pred ~hold ~deadline

(* ------------------------------------------------------------------ *)
(* Choice-point mode: instead of popping by virtual time, a model
   checker reads the enabled set and picks which pending timer fires
   next.  Entries for fired/cancelled timers stay in the heap until a
   compaction pass; they are filtered here and never observable. *)

(* Rebuild the heap from its pending entries once dead ones dominate.
   Without this, a long choice-mode exploration (which never runs
   [fire_head], hence never pops) would scan an ever-growing array in
   every [enabled] call. *)
let compact t =
  if Heap.size t.queue > 64 && Heap.size t.queue > 2 * t.pending then begin
    let live = ref [] in
    while not (Heap.is_empty t.queue) do
      let timer = Heap.top t.queue in
      Heap.drop t.queue;
      if timer.state = Pending then live := timer :: !live
    done;
    List.iter
      (fun timer -> Heap.push t.queue ~time:timer.due ~seq:timer.id timer)
      !live
  end

let enabled t =
  compact t;
  List.filter_map
    (fun (_, seq, timer) ->
      if timer.state = Pending then Some (seq, timer.due) else None)
    (Heap.to_sorted_list t.queue)

let fire t ~seq =
  let found = ref None in
  Heap.iter t.queue (fun _ s timer ->
      if s = seq && timer.state = Pending then found := Some timer);
  match !found with
  | None -> false
  | Some timer ->
    (* Time is monotonic even under out-of-order firing: jumping to an
       event scheduled before the current instant would make [now]
       rewind, so clamp.  Firing in enabled-set order never clamps. *)
    if timer.due > t.time then t.time <- timer.due;
    run_timer t timer;
    true
