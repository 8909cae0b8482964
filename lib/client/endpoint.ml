module Engine = Rsmr_sim.Engine
module Batch = Rsmr_sim.Batch
module Rng = Rsmr_sim.Rng
module Trace = Rsmr_sim.Trace
module Counters = Rsmr_sim.Counters
module Stable = Rsmr_sim.Stable
module Node_id = Rsmr_net.Node_id

type outstanding = {
  payload : Client_msg.payload;
  mutable attempts : int;
  mutable redirects : int;
  mutable stale : int; (* redirects from an epoch older than believed *)
  mutable timer : Engine.timer option;
}

type t = {
  engine : Engine.t;
  me : Node_id.t;
  send : dst:Node_id.t -> Client_msg.t -> unit;
  mutable members : Node_id.t list;
  mutable leader : Node_id.t option;
  mutable epoch : int;
  lookup : ((Rsmr_app.Dir_app.entry option -> unit) -> unit) option;
  req_timeout : float;
  on_reply : seq:int -> rsp:string -> unit;
  pending : (int, outstanding) Hashtbl.t;
  batch : int Batch.t; (* buffered seqs *)
  mutable rr : int;
  mutable max_seq : int;
  rng : Rng.t;
  (* tallies behind [counters] *)
  mutable n_sent : int;
  mutable n_retries : int;
  mutable n_lookups : int;
  mutable n_replies : int;
  mutable n_redirects : int;
  mutable lookup_inflight : bool;
  bus : Trace.t option;
}

(* Client-side command lifecycle events ("submit", "retry", "replied") for
   span reconstruction.  Guarded on [Trace.active] so an unobserved run
   does not build the attrs list. *)
let lifecycle t ev ~seq =
  match t.bus with
  | Some bus when Trace.active bus ->
    Trace.emit bus ~time:(Engine.now t.engine) ~node:t.me ~topic:`Lifecycle
      ~attrs:
        [
          ("ev", ev);
          ("client", string_of_int t.me);
          ("seq", string_of_int seq);
        ]
      ev
  | Some _ | None -> ()

let target t =
  match t.leader with
  | Some l -> l
  | None -> (
    let n = List.length t.members in
    if n = 0 then t.me (* request will time out and refresh the members *)
    else begin
      t.rr <- (t.rr + 1) mod n;
      match List.nth_opt t.members t.rr with Some m -> m | None -> t.me
    end)

(* The lowest outstanding seq ([max_seq + 1] when none is): every request
   below it has been replied to, so servers may drop those responses.
   The minimum does not depend on the order the table is walked in. *)
let low_water t =
  (* lint: order-insensitive *)
  Hashtbl.fold (fun s _ acc -> min s acc) t.pending (t.max_seq + 1)
[@@rsmr.assume_deterministic]

(* Put [k] in the request's single timer slot, replacing what was there. *)
let rearm t o ~delay k =
  o.timer <- Engine.cancel_opt t.engine o.timer;
  o.timer <- Some (Engine.schedule t.engine ~delay k)

let rec attempt t seq =
  match Hashtbl.find_opt t.pending seq with
  | None -> ()
  | Some o ->
    o.timer <- Engine.cancel_opt t.engine o.timer;
    o.attempts <- o.attempts + 1;
    t.n_sent <- t.n_sent + 1;
    t.send ~dst:(target t)
      (Client_msg.Request { seq; low_water = low_water t; payload = o.payload });
    rearm t o ~delay:t.req_timeout (fun () -> on_timeout t seq)

and on_timeout t seq =
  match Hashtbl.find_opt t.pending seq with
  | None -> ()
  | Some o ->
    t.n_retries <- t.n_retries + 1;
    lifecycle t "retry" ~seq;
    (* Distrust the cached leader and rotate; periodically consult the
       directory for a fresh configuration. *)
    t.leader <- None;
    if o.attempts mod 3 = 0 then refresh_members t;
    attempt t seq

and refresh_members t =
  match t.lookup with
  | Some lookup when not t.lookup_inflight ->
    t.lookup_inflight <- true;
    t.n_lookups <- t.n_lookups + 1;
    lookup (fun entry ->
        t.lookup_inflight <- false;
        match entry with
        | Some e when e.Rsmr_app.Dir_app.members <> [] ->
          t.members <- e.Rsmr_app.Dir_app.members
        | Some _ | None -> ())
  | Some _ | None -> ()

(* The still-outstanding requests among [seqs], in order, as the
   [(seq, payload)] pairs a [Request_batch] carries. *)
let[@tail_mod_cons] rec live_requests pending = function
  | [] -> []
  | seq :: rest -> (
    match Hashtbl.find_opt pending seq with
    | Some o -> (seq, o.payload) :: live_requests pending rest
    | None -> live_requests pending rest)

let rec rearm_sent t = function
  | [] -> ()
  | (seq, _) :: rest ->
    (match Hashtbl.find_opt t.pending seq with
     | Some o ->
       o.attempts <- o.attempts + 1;
       rearm t o ~delay:t.req_timeout (fun () -> on_timeout t seq)
     | None -> ());
    rearm_sent t rest

(* Ship the coalescing buffer as one framed multi-request message (or a
   plain [Request] when only one command accumulated).  Every inner
   request keeps its own retry timer; retries and redirects then flow
   through the ordinary single-request path, so batching only changes the
   first transmission. *)
let flush_batch t =
  match live_requests t.pending (Batch.drain t.batch) with
  | [] -> ()
  | [ (seq, _) ] -> attempt t seq
  | reqs ->
    t.n_sent <- t.n_sent + 1;
    t.send ~dst:(target t)
      (Client_msg.Request_batch { low_water = low_water t; reqs });
    rearm_sent t reqs

let create ~engine ~me ~send ~members ?lookup ?(req_timeout = 0.5)
    ?(batch_window = 0.0) ?(batch_max = 16) ?bus ~on_reply () =
  if members = [] then invalid_arg "Endpoint.create: empty member list";
  (* The batcher's flush needs the endpoint it belongs to. *)
  let self = ref None in
  let batch =
    Batch.create engine ~delay:batch_window ~max:batch_max ~flush:(fun () ->
        Option.iter flush_batch !self)
  in
  let t =
    {
      engine;
      me;
      send;
      members;
      leader = None;
      epoch = 0;
      lookup;
      req_timeout;
      on_reply;
      pending = Hashtbl.create 8;
      batch;
      rr = 0;
      max_seq = 0;
      rng = Rng.split (Engine.rng engine);
      n_sent = 0;
      n_retries = 0;
      n_lookups = 0;
      n_replies = 0;
      n_redirects = 0;
      lookup_inflight = false;
      bus;
    }
  in
  self := Some t;
  t

let submit t ~seq ~payload =
  if seq > t.max_seq then t.max_seq <- seq;
  if not (Hashtbl.mem t.pending seq) then begin
    Hashtbl.replace t.pending seq
      { payload; attempts = 0; redirects = 0; stale = 0; timer = None };
    lifecycle t "submit" ~seq
  end;
  if not (Batch.mem ~equal:Int.equal seq t.batch) then Batch.add t.batch seq

let handle t ~src msg =
  match (msg : Client_msg.t) with
  | Client_msg.Reply { seq; rsp } -> (
    match Hashtbl.find_opt t.pending seq with
    | Some o ->
      o.timer <- Engine.cancel_opt t.engine o.timer;
      Hashtbl.remove t.pending seq;
      t.n_replies <- t.n_replies + 1;
      lifecycle t "replied" ~seq;
      t.on_reply ~seq ~rsp
    | None -> (* duplicate reply from a retry *) ())
  | Client_msg.Redirect { seq; leader; members; epoch } -> (
    t.n_redirects <- t.n_redirects + 1;
    let stale = epoch < t.epoch in
    if not stale then begin
      t.epoch <- epoch;
      if members <> [] then t.members <- members;
      (* A node naming itself (a deposed leader with a stale hint) would
         capture the client; rotate instead. *)
      t.leader <- (if leader = Some src then None else leader)
    end;
    match Hashtbl.find_opt t.pending seq with
    | Some o ->
      if stale then o.stale <- o.stale + 1 else o.redirects <- o.redirects + 1;
      (* Hints can cycle (two deposed nodes pointing at each other), and a
         redirect re-arms the request timer, so the timeout path alone
         never breaks the loop: periodically distrust the hint, rotate,
         and ask the directory. *)
      if (o.redirects + o.stale) mod 6 = 0 then begin
        t.leader <- None;
        refresh_members t
      end;
      (* Follow the first hint at once: across a leader change it is the
         client's whole wait.  A redirect from an older epoch than the
         believed one carries no news (its sender has not yet heard of the
         configuration, say a joiner just before its bootstrap), so it
         neither spends that re-send nor counts toward back-off: the
         request goes to the believed leader again after a millisecond.
         Any other redirect backs off in the single timer slot, so a
         duplicate re-arms it instead of adding a send and an election
         (nobody leads yet) is no redirect storm. *)
      if stale then rearm t o ~delay:0.001 (fun () -> attempt t seq)
      else if o.redirects = 1 && t.leader <> None then attempt t seq
      else
        rearm t o ~delay:(0.010 +. Rng.float t.rng 0.015) (fun () ->
            attempt t seq)
    | None -> ())
  | Client_msg.Request _ | Client_msg.Request_batch _ ->
    (* not addressed to clients *) ()

let outstanding t = Hashtbl.length t.pending
let counters t =
  Counters.make (fun () ->
      [
        ("sent", t.n_sent);
        ("retries", t.n_retries);
        ("lookups", t.n_lookups);
        ("replies", t.n_replies);
        ("redirects", t.n_redirects);
      ])
let redirect_storm ~redirects ~submitted =
  let bound = (50 * submitted) + 500 in
  if redirects <= bound then None
  else Some (Printf.sprintf "%d redirects for %d commands (bound %d)"
               redirects submitted bound)
let believed_members t = t.members
let believed_leader t = t.leader

(* Canonical encoding of the endpoint's retry state for model-checker
   fingerprints: believed configuration, every outstanding request
   (sorted by sequence number) with its payload and retry counters, and
   the round-robin / watermark cursors.  Timer due-times are excluded;
   timer presence is included. *)
let fingerprint t =
  let module W = Rsmr_app.Codec.Writer in
  let w = W.create ~size_hint:128 () in
  let node w n = W.varint w (n : Node_id.t) in
  W.list w node t.members;
  W.option w node t.leader;
  W.varint w t.epoch;
  W.list w
    (fun w (seq, o) ->
      W.varint w seq;
      W.nested w Client_msg.write
        (Client_msg.Request { seq; low_water = 0; payload = o.payload });
      W.varint w o.attempts;
      W.varint w o.redirects;
      W.varint w o.stale;
      W.bool w (Engine.armed o.timer))
    (List.rev
       (Stable.fold_sorted ~compare:Int.compare
          (fun k v acc -> (k, v) :: acc)
          t.pending []));
  W.varint w t.rr;
  W.varint w t.max_seq;
  W.bool w t.lookup_inflight;
  W.list w W.varint (List.rev (Batch.contents t.batch));
  W.bool w (Batch.armed t.batch);
  W.contents w
[@@rsmr.codec.oneway]
