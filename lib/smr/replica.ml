module Engine = Rsmr_sim.Engine
module Batch = Rsmr_sim.Batch
module Rng = Rsmr_sim.Rng
module Stable = Rsmr_sim.Stable
module Node_id = Rsmr_net.Node_id
module Msg = Msg

let block_name = "multipaxos"

type candidacy = {
  c_ballot : Ballot.t;
  mutable promised_from : Node_id.Set.t;
  merged : (int, Log.entry) Hashtbl.t; (* highest-ballot entry per slot *)
  from_index : int;
}

(* The leader's ack table is one member mask per open slot:
   [acks.(i - acks_lo)] for slot [i], bit [k] set when the [k]-th member
   of [cfg.members] accepted it, 0 when the slot has no entry.  Every
   slot below [acks_lo] is committed. *)
type leadership = {
  l_ballot : Ballot.t;
  mutable next_index : int;
  mutable acks : int array;
  mutable acks_lo : int;
  (* [next_index] at the last resend tick (or takeover): only slots below
     it have waited a whole [resend_interval] and may be re-sent. *)
  mutable resend_below : int;
}

type role = R_follower | R_candidate of candidacy | R_leader of leadership

type t = {
  engine : Engine.t;
  params : Params.t;
  cfg : Config.t;
  me : Node_id.t;
  send : dst:Node_id.t -> Msg.t -> unit;
  bcast : (Msg.t -> unit) option;
  others : Node_id.t list; (* Config.others cfg me, computed once *)
  me_bit : int; (* our bit in an ack mask *)
  on_decide : int -> string -> unit;
  rng : Rng.t;
  log : Log.t;
  mutable promised : Ballot.t;
  mutable role : role;
  mutable hint : Node_id.t option;
  mutable deliver_index : int;
  (* Highest committed watermark heard from a leader, together with that
     leader's ballot: a follower may locally commit slot i <= watermark only
     if its accepted entry for i carries exactly that ballot; otherwise it
     must fetch the chosen value with Learn_req. *)
  mutable known_committed : int;
  mutable known_committed_ballot : Ballot.t;
  pending : string Queue.t;
  batch : string Batch.t; (* leader only *)
  mutable election_timer : Engine.timer option;
  mutable hb_timer : Engine.timer option;
  mutable resend_timer : Engine.timer option;
  mutable learn_inflight : bool;
  mutable halted : bool;
  (* Pre-resolved metric cells — scoped {node; epoch} registry cells when
     an Observatory is attached, otherwise unshared refs nobody reads — so
     accounting is a ref bump either way. *)
  c_elections : int ref;
  c_takeovers : int ref;
  c_proposals : int ref;
  c_resent : int ref;
  c_commits : int ref;
}

let is_leader t =
  match t.role with R_leader _ -> not t.halted | R_follower | R_candidate _ -> false

let leader_hint t =
  if t.halted then None
  else match t.role with R_leader _ -> Some t.me | _ -> t.hint

let commit_index t = Log.committed_prefix t.log
let is_halted t = t.halted
let submit_msg value = Msg.Submit { value }
let submit_many_msg values = Msg.Submit_multi { values }

(* Same message to every other member: hand the whole fan-out to the
   transport when it gave us a broadcast hook (it then encodes the
   payload exactly once), else fall back to per-destination sends. *)
let broadcast t msg =
  match t.bcast with
  | Some f -> f msg
  | None -> List.iter (fun dst -> t.send ~dst msg) t.others

(* Phase 2 is a run of consecutive slots; a run of one travels as the
   compact single-slot encoding. *)
let accept_msg ~ballot ~from_index ~commit_index kinds =
  match kinds with
  | [ kind ] -> Msg.Accept { ballot; index = from_index; kind; commit_index }
  | _ -> Msg.Accept_multi { ballot; from_index; kinds; commit_index }

let accepted_msg ~ballot ~from_index ~upto =
  if upto = from_index then Msg.Accepted { ballot; index = from_index }
  else Msg.Accepted_multi { ballot; from_index; upto }

(* [src]'s bit in an ack mask, walking the members from [bit]: 0 for a
   non-member.  Top-level, so a lookup allocates no closure. *)
let rec member_bit src bit = function
  | [] -> 0
  | m :: rest ->
    if Node_id.equal m src then bit else member_bit src (bit lsl 1) rest

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* The members whose bits are set in [mask], in member-list order. *)
let rec members_of mask = function
  | [] -> []
  | m :: rest ->
    if mask land 1 = 0 then members_of (mask lsr 1) rest
    else m :: members_of (mask lsr 1) rest

let ack_mask lead i =
  let k = i - lead.acks_lo in
  if k >= 0 && k < Array.length lead.acks then lead.acks.(k) else 0

let clear_ack lead i =
  let k = i - lead.acks_lo in
  if k >= 0 && k < Array.length lead.acks then lead.acks.(k) <- 0

(* Room for slot [i] (at or above [acks_lo]): slide the window past its
   leading committed slots below [i], whatever their mask, and double it
   when that leaves it more than half full. *)
let make_room lead log i =
  let n = Array.length lead.acks in
  let d = ref 0 in
  while
    !d < n && lead.acks_lo + !d < i && Log.is_committed log (lead.acks_lo + !d)
  do
    incr d
  done;
  let d = !d in
  let need = i - lead.acks_lo - d + 1 in
  if 2 * need <= n then begin
    Array.blit lead.acks d lead.acks 0 (n - d);
    Array.fill lead.acks (n - d) d 0
  end
  else begin
    let acks = Array.make (max 64 (max need (2 * n))) 0 in
    Array.blit lead.acks d acks 0 (n - d);
    lead.acks <- acks
  end;
  lead.acks_lo <- lead.acks_lo + d

let set_ack lead log i mask =
  if i - lead.acks_lo >= Array.length lead.acks then make_room lead log i;
  lead.acks.(i - lead.acks_lo) <- mask

(* Deliver the committed prefix to the application, in order. *)
let deliver t =
  let stop = ref false in
  while (not !stop) && t.deliver_index < Log.committed_prefix t.log do
    if Log.is_populated t.log t.deliver_index then begin
      match Log.kind_at t.log t.deliver_index with
      | Log.Value v -> t.on_decide t.deliver_index v
      | Log.Noop -> ()
    end
    else
      (* committed_prefix only advances over populated slots, so a gap
         here cannot happen; stop delivering rather than crash the
         replica if the invariant is ever violated. *)
      stop := true;
    if not !stop then begin
      t.deliver_index <- t.deliver_index + 1;
      if t.halted then stop := true
    end
  done

(* Try to locally commit slots covered by the leader's watermark. *)
let absorb_commit_watermark t =
  let hi = min (t.known_committed - 1) (Log.length t.log - 1) in
  let i = ref (Log.committed_prefix t.log) in
  let blocked = ref false in
  while (not !blocked) && !i <= hi do
    if
      Log.is_populated t.log !i
      && Ballot.equal (Log.ballot_at t.log !i) t.known_committed_ballot
    then Log.mark_committed t.log !i
    else blocked := true;
    incr i
  done;
  deliver t

let rec request_learn t =
  if
    (not t.halted)
    && (not t.learn_inflight)
    && Log.committed_prefix t.log < t.known_committed
  then begin
    match leader_hint t with
    | Some dst when not (Node_id.equal dst t.me) ->
      t.learn_inflight <- true;
      t.send ~dst (Msg.Learn_req { from_index = Log.committed_prefix t.log });
      (* Clear the inflight latch even if the response is lost. *)
      ignore
        (Engine.schedule t.engine ~delay:Params.resend_interval
           (fun () ->
             t.learn_inflight <- false;
             request_learn t))
    | _ -> ()
  end

let sync_follower_commit t =
  absorb_commit_watermark t;
  if Log.committed_prefix t.log < t.known_committed then request_learn t

let note_commit_info t ~ballot ~commit_index =
  if
    commit_index > t.known_committed
    || Ballot.(t.known_committed_ballot < ballot)
  then begin
    if commit_index > t.known_committed then t.known_committed <- commit_index;
    if Ballot.(t.known_committed_ballot < ballot) then
      t.known_committed_ballot <- ballot
  end;
  sync_follower_commit t

(* --- timers --- *)

let rec reset_election_timer t =
  t.election_timer <- Engine.cancel_opt t.engine t.election_timer;
  if not t.halted then begin
    let delay =
      Rng.uniform_in t.rng t.params.Params.election_timeout_min
        t.params.Params.election_timeout_max
    in
    t.election_timer <-
      Some (Engine.schedule t.engine ~delay (fun () -> on_election_timeout t))
  end

and on_election_timeout t =
  if not t.halted then
    match t.role with
    | R_leader _ -> () (* leaders do not self-depose *)
    | R_follower | R_candidate _ -> start_election t

and start_election t =
  incr t.c_elections;
  let ballot = Ballot.next t.promised t.me in
  t.promised <- ballot;
  let from_index = Log.committed_prefix t.log in
  let merged = Hashtbl.create 16 in
  List.iter
    (fun (i, e) -> Hashtbl.replace merged i e)
    (Log.entries_from t.log from_index);
  let cand =
    { c_ballot = ballot; promised_from = Node_id.Set.singleton t.me; merged; from_index }
  in
  if t.params.Params.skip_phase1 then
    (* The model checker's mutation: lead on our own log alone, as only
       the ballot-0 owner may. *)
    become_leader t cand
  else begin
    t.role <- R_candidate cand;
    broadcast t (Msg.Prepare { ballot; from_index });
    reset_election_timer t;
    maybe_win t cand
  end

and maybe_win t cand =
  if Node_id.Set.cardinal cand.promised_from >= Config.quorum t.cfg then
    become_leader t cand

and become_leader t cand =
  incr t.c_takeovers;
  let ballot = cand.c_ballot in
  let max_index =
    List.fold_left max (cand.from_index - 1)
      (Stable.sorted_keys ~compare:Int.compare cand.merged)
  in
  let lead =
    {
      l_ballot = ballot;
      next_index = max_index + 1;
      acks = Array.make 64 0;
      acks_lo = cand.from_index;
      resend_below = max_index + 1;
    }
  in
  t.role <- R_leader lead;
  t.hint <- Some t.me;
  (* Adopt the highest-ballot entry for every slot in the takeover window,
     filling holes with no-ops, and re-propose everything at our ballot. *)
  for i = cand.from_index to max_index do
    let kind =
      match Hashtbl.find_opt cand.merged i with
      | Some e -> e.Log.kind
      | None -> Log.Noop
    in
    if not (Log.is_committed t.log i) then begin
      Log.set_at t.log i ~ballot kind;
      set_ack lead t.log i t.me_bit;
      broadcast t
        (accept_msg ~ballot ~from_index:i
           ~commit_index:(Log.committed_prefix t.log) [ kind ])
    end
  done;
  t.election_timer <- Engine.cancel_opt t.engine t.election_timer;
  start_heartbeat t;
  start_resend t;
  maybe_commit_solo t lead;
  drain_pending t

and maybe_commit_solo t lead =
  (* In a single-member configuration the leader's own acceptance is a
     quorum, so slots commit without any message exchange. *)
  if Config.quorum t.cfg = 1 then begin
    for k = 0 to Array.length lead.acks - 1 do
      if lead.acks.(k) <> 0 then begin
        Log.mark_committed t.log (lead.acks_lo + k);
        lead.acks.(k) <- 0
      end
    done;
    deliver t;
    Batch.pump t.batch
  end

and start_heartbeat t =
  t.hb_timer <- Engine.cancel_opt t.engine t.hb_timer;
  let rec tick () =
    match t.role with
    | R_leader lead when not t.halted ->
      broadcast t
        (Msg.Heartbeat
           { ballot = lead.l_ballot; commit_index = Log.committed_prefix t.log });
      t.hb_timer <-
        Some (Engine.schedule t.engine ~delay:t.params.Params.heartbeat_interval tick)
    | _ -> ()
  in
  tick ()

and start_resend t =
  t.resend_timer <- Engine.cancel_opt t.engine t.resend_timer;
  let rec tick () =
    match t.role with
    | R_leader lead when not t.halted ->
      (* Only slots proposed before the previous tick are stuck: anything
         newer has not yet waited a whole interval for its acks, and its
         Accept may still be queued on our own uplink.  Re-broadcast the
         first max_outstanding populated-but-uncommitted ones at our
         ballot, read in place, one run per stretch of consecutive slots,
         so a stalled pipeline window is one message per follower, not
         max_outstanding of them. *)
      let commit_index = Log.committed_prefix t.log in
      let hi = min (Log.length t.log) lead.resend_below in
      (* [kinds] is the run so far, newest first: [n] slots from [from]. *)
      let flush_run from kinds n =
        if n > 0 then begin
          t.c_resent := !(t.c_resent) + n;
          broadcast t
            (accept_msg ~ballot:lead.l_ballot ~from_index:from ~commit_index
               (List.rev kinds))
        end
      in
      let rec walk i budget from kinds n =
        if i >= hi || budget = 0 then flush_run from kinds n
        else if (not (Log.is_populated t.log i)) || Log.is_committed t.log i
        then begin
          (* a hole or a committed slot ends the run, off the budget *)
          flush_run from kinds n;
          walk (i + 1) budget (i + 1) [] 0
        end
        else if Ballot.equal (Log.ballot_at t.log i) lead.l_ballot then
          walk (i + 1) (budget - 1) from (Log.kind_at t.log i :: kinds) (n + 1)
        else begin
          flush_run from kinds n;
          walk (i + 1) (budget - 1) (i + 1) [] 0
        end
      in
      walk commit_index t.params.Params.max_outstanding commit_index [] 0;
      lead.resend_below <- lead.next_index;
      t.resend_timer <-
        Some (Engine.schedule t.engine ~delay:Params.resend_interval tick)
    | _ -> ()
  in
  t.resend_timer <-
    Some (Engine.schedule t.engine ~delay:Params.resend_interval tick)

(* Leader-side batching ({!Batch} owns the window) + pipelining: one
   flush proposes the buffered values as one run of slots (a single value
   is a run of one), keeping at most max_outstanding uncommitted slots in
   flight.  Whatever does not fit stays buffered and is re-flushed by
   [Batch.pump] when commits advance. *)
and flush_batch t =
  match t.role with
  | R_leader lead when not t.halted -> (
    let cap =
      t.params.Params.max_outstanding
      - (lead.next_index - Log.committed_prefix t.log)
    in
    match Batch.take t.batch cap with
    | [] -> ()
    | values ->
      let from_index = lead.next_index in
      let kinds =
        List.map
          (fun value ->
            let index = lead.next_index in
            lead.next_index <- index + 1;
            let kind = Log.Value value in
            incr t.c_proposals;
            Log.set_at t.log index ~ballot:lead.l_ballot kind;
            set_ack lead t.log index t.me_bit;
            kind)
          values
      in
      broadcast t
        (accept_msg ~ballot:lead.l_ballot ~from_index
           ~commit_index:(Log.committed_prefix t.log) kinds);
      maybe_commit_solo t lead)
  | R_leader _ | R_candidate _ | R_follower -> ()

and drain_pending t =
  let rec drain f =
    match Queue.take_opt t.pending with
    | Some value ->
      f value;
      drain f
    | None -> ()
  in
  match t.role with
  | R_leader _ ->
    drain (fun value -> Batch.add t.batch value);
    flush_batch t
  | R_candidate _ -> ()
  | R_follower -> (
    match t.hint with
    | Some dst when not (Node_id.equal dst t.me) ->
      (* Forward everything queued as one vector submission. *)
      let values = ref [] in
      drain (fun value -> values := value :: !values);
      (match List.rev !values with
       | [] -> ()
       | [ value ] -> t.send ~dst (Msg.Submit { value })
       | values -> t.send ~dst (Msg.Submit_multi { values }))
    | _ -> ())

let step_down t ~higher =
  (match t.role with
   | R_leader _ | R_candidate _ ->
     t.hb_timer <- Engine.cancel_opt t.engine t.hb_timer;
     t.resend_timer <- Engine.cancel_opt t.engine t.resend_timer;
     (* Unproposed batched values go back to pending so they get forwarded
        to whoever wins. *)
     List.iter (fun v -> Queue.push v t.pending) (Batch.drain t.batch);
     t.role <- R_follower
   | R_follower -> ());
  if Ballot.(t.promised < higher) then t.promised <- higher;
  reset_election_timer t

(* --- message handlers --- *)

let on_prepare t ~src (ballot : Ballot.t) from_index =
  if Ballot.(t.promised <= ballot) then begin
    (match t.role with
     | R_leader _ | R_candidate _ ->
       if Ballot.(t.promised < ballot) then step_down t ~higher:ballot
     | R_follower -> ());
    t.promised <- ballot;
    t.hint <- Some src;
    reset_election_timer t;
    t.send ~dst:src
      (Msg.Promise
         {
           ballot;
           from_index;
           entries = Log.entries_from t.log from_index;
           commit_index = Log.committed_prefix t.log;
         })
  end
  else t.send ~dst:src (Msg.Reject { ballot; higher = t.promised })

let on_promise t ~src (ballot : Ballot.t) entries =
  match t.role with
  | R_candidate cand when Ballot.equal cand.c_ballot ballot ->
    cand.promised_from <- Node_id.Set.add src cand.promised_from;
    List.iter
      (fun (i, (e : Log.entry)) ->
        match Hashtbl.find_opt cand.merged i with
        | Some cur when Ballot.(e.Log.ballot <= cur.Log.ballot) -> ()
        | Some _ | None -> Hashtbl.replace cand.merged i e)
      entries;
    maybe_win t cand
  | _ -> ()

let on_reject t (ballot : Ballot.t) higher =
  let ours =
    match t.role with
    | R_candidate c -> Ballot.equal c.c_ballot ballot
    | R_leader l -> Ballot.equal l.l_ballot ballot
    | R_follower -> false
  in
  if ours then step_down t ~higher

(* A run of consecutive slots from [from_index], acknowledged as a whole. *)
let on_accept t ~src (ballot : Ballot.t) from_index kinds commit_index =
  if Ballot.(t.promised <= ballot) then begin
    (match t.role with
     | R_leader l when not (Ballot.equal l.l_ballot ballot) ->
       step_down t ~higher:ballot
     | R_candidate c when not (Ballot.equal c.c_ballot ballot) ->
       step_down t ~higher:ballot
     | _ -> ());
    t.promised <- ballot;
    t.hint <- Some ballot.Ballot.node;
    if not (is_leader t) then reset_election_timer t;
    List.iteri
      (fun offset kind ->
        let index = from_index + offset in
        if not (Log.is_committed t.log index) then
          Log.set_at t.log index ~ballot kind)
      kinds;
    t.send ~dst:src
      (accepted_msg ~ballot ~from_index
         ~upto:(from_index + List.length kinds - 1));
    note_commit_info t ~ballot ~commit_index;
    drain_pending t
  end
  else t.send ~dst:src (Msg.Reject { ballot; higher = t.promised })

let on_accepted t ~src (ballot : Ballot.t) from_index upto =
  match t.role with
  | R_leader lead when Ballot.equal lead.l_ballot ballot ->
    let bit = member_bit src 1 t.cfg.Config.members in
    let committed_any = ref false in
    (* Only slots this leadership proposed have ack entries to add to. *)
    for index = max from_index lead.acks_lo to min upto (lead.next_index - 1) do
      if not (Log.is_committed t.log index) then begin
        let mask = ack_mask lead index in
        let mask = (if mask = 0 then t.me_bit else mask) lor bit in
        if popcount mask >= Config.quorum t.cfg then begin
          Log.mark_committed t.log index;
          clear_ack lead index;
          incr t.c_commits;
          committed_any := true
        end
        else set_ack lead t.log index mask
      end
    done;
    if !committed_any then begin
      deliver t;
      Batch.pump t.batch
    end
  | _ -> ()

let on_heartbeat t ~src (ballot : Ballot.t) commit_index =
  if Ballot.(t.promised <= ballot) then begin
    (match t.role with
     | R_leader l when not (Ballot.equal l.l_ballot ballot) ->
       step_down t ~higher:ballot
     | R_candidate _ -> step_down t ~higher:ballot
     | _ -> ());
    t.promised <- ballot;
    t.hint <- Some src;
    if not (is_leader t) then reset_election_timer t;
    note_commit_info t ~ballot ~commit_index;
    drain_pending t
  end
  else t.send ~dst:src (Msg.Reject { ballot; higher = t.promised })

(* Max committed entries per [Learn_rsp]. *)
let learn_batch = 256

let on_learn_req t ~src from_index =
  let upto = Log.committed_prefix t.log - 1 in
  let hi = min upto (from_index + learn_batch - 1) in
  if hi >= from_index then
    t.send ~dst:src
      (Msg.Learn_rsp
         {
           entries = Log.committed_values t.log ~lo:from_index ~hi;
           commit_index = Log.committed_prefix t.log;
         })

let on_learn_rsp t entries commit_index =
  t.learn_inflight <- false;
  List.iter (fun (i, kind) -> Log.set_committed t.log i kind) entries;
  (* A new leader may hold an ack entry for a slot the response commits;
     the slot needs no more acks. *)
  (match t.role with
   | R_leader lead -> List.iter (fun (i, _) -> clear_ack lead i) entries
   | R_follower | R_candidate _ -> ());
  if commit_index > t.known_committed then t.known_committed <- commit_index;
  deliver t;
  if Log.committed_prefix t.log < t.known_committed then request_learn t

let submit t value =
  if not t.halted then begin
    match t.role with
    | R_leader _ -> Batch.add t.batch value
    | R_candidate _ -> Queue.push value t.pending
    | R_follower -> (
      match t.hint with
      | Some dst when not (Node_id.equal dst t.me) ->
        t.send ~dst (Msg.Submit { value })
      | _ -> Queue.push value t.pending)
  end
[@@rsmr.deterministic] [@@rsmr.total]

(* Vector submission: the values are already a batch, so they are proposed
   (or forwarded) as one multi-command slot run regardless of the batching
   window, preserving their order. *)
let submit_many t values =
  if (not t.halted) && values <> [] then begin
    match t.role with
    | R_leader _ ->
      List.iter (fun value -> Batch.push t.batch value) values;
      flush_batch t
    | R_candidate _ -> List.iter (fun value -> Queue.push value t.pending) values
    | R_follower -> (
      match t.hint with
      | Some dst when not (Node_id.equal dst t.me) ->
        t.send ~dst (Msg.Submit_multi { values })
      | _ -> List.iter (fun value -> Queue.push value t.pending) values)
  end
[@@rsmr.deterministic] [@@rsmr.total]

let handle t ~src msg =
  if not t.halted then
    match (msg : Msg.t) with
    | Msg.Submit { value } -> submit t value
    | Msg.Submit_multi { values } -> submit_many t values
    | _ when member_bit src 1 t.cfg.Config.members = 0 ->
      (* Only members propose, vote and learn.  Anyone may submit: an old
         epoch's leader forwards residuals as a non-member. *)
      ()
    | Msg.Prepare { ballot; from_index } -> on_prepare t ~src ballot from_index
    | Msg.Promise { ballot; entries; _ } -> on_promise t ~src ballot entries
    | Msg.Reject { ballot; higher } -> on_reject t ballot higher
    | Msg.Accept { ballot; index; kind; commit_index } ->
      on_accept t ~src ballot index [ kind ] commit_index
    | Msg.Accept_multi { ballot; from_index; kinds; commit_index } ->
      on_accept t ~src ballot from_index kinds commit_index
    | Msg.Accepted { ballot; index } -> on_accepted t ~src ballot index index
    | Msg.Accepted_multi { ballot; from_index; upto } ->
      on_accepted t ~src ballot from_index upto
    | Msg.Heartbeat { ballot; commit_index } ->
      on_heartbeat t ~src ballot commit_index
    | Msg.Learn_req { from_index } -> on_learn_req t ~src from_index
    | Msg.Learn_rsp { entries; commit_index } ->
      on_learn_rsp t entries commit_index
[@@rsmr.deterministic] [@@rsmr.total]

let halt t =
  if not t.halted then begin
    t.halted <- true;
    t.election_timer <- Engine.cancel_opt t.engine t.election_timer;
    t.hb_timer <- Engine.cancel_opt t.engine t.hb_timer;
    t.resend_timer <- Engine.cancel_opt t.engine t.resend_timer;
    Batch.cancel t.batch
  end

let kick_election t = if not t.halted then start_election t

let create ~engine ~params ~config:cfg ~me ~send ?broadcast ?obs ~on_decide
    () =
  if not (Config.is_member cfg me) then
    invalid_arg "Replica.create: not a member of the configuration";
  if Config.size cfg > Sys.int_size then
    invalid_arg "Replica.create: more members than an ack mask has bits";
  let metric =
    match obs with
    | Some reg ->
      let sc =
        Rsmr_obs.Registry.scope ~node:me ~epoch:cfg.Config.instance_id reg
      in
      fun name -> Rsmr_obs.Registry.scope_counter sc name
    | None -> fun _ -> ref 0
  in
  (* The batcher's flush needs the replica it belongs to. *)
  let self = ref None in
  let batch =
    Batch.create engine ~delay:params.Params.batch_delay
      ~max:params.Params.batch_max ~flush:(fun () ->
        Option.iter flush_batch !self)
  in
  let t =
    {
      engine;
      params;
      cfg;
      me;
      send;
      bcast = broadcast;
      others = Config.others cfg me;
      me_bit = member_bit me 1 cfg.Config.members;
      on_decide;
      rng = Rng.split (Engine.rng engine);
      log = Log.create ();
      promised = Ballot.zero;
      role = R_follower;
      hint = None;
      deliver_index = 0;
      known_committed = 0;
      known_committed_ballot = Ballot.zero;
      pending = Queue.create ();
      batch;
      election_timer = None;
      hb_timer = None;
      resend_timer = None;
      learn_inflight = false;
      halted = false;
      c_elections = metric "elections";
      c_takeovers = metric "takeovers";
      c_proposals = metric "proposals";
      c_resent = metric "resent";
      c_commits = metric "commits";
    }
  in
  self := Some t;
  (* Ballot 0 belongs to the configuration's first member, which leads
     from creation without phase 1: no acceptor can hold a lower ballot
     and a fresh replica has accepted nothing, so the takeover window is
     empty.  Every other member waits out an election timeout, and only
     then runs phase 1 at a ballot above 0. *)
  (match cfg.Config.members with
   | owner :: _ when Node_id.equal owner me ->
     let ballot = { Ballot.round = 0; node = me } in
     t.promised <- ballot;
     become_leader t
       {
         c_ballot = ballot;
         promised_from = Node_id.Set.singleton me;
         merged = Hashtbl.create 1;
         from_index = 0;
       }
   | _ -> reset_election_timer t);
  t

(* Canonical fingerprint (the Block_intf contract): every field that can
   influence future behaviour, serialized through the codec with
   unordered collections (promise sets, ack tables, merged entries)
   emitted in sorted key order.  Timer due-times, the RNG and metric
   counters are deliberately excluded — they are not
   protocol state — but timer *presence* is included, since "a flush is
   scheduled" and "no flush is scheduled" behave differently. *)
let fingerprint t =
  let module W = Rsmr_app.Codec.Writer in
  let w = W.create ~size_hint:256 () in
  let node w n = W.varint w (n : Node_id.t) in
  let node_set w s = W.list w node (Node_id.Set.elements s) in
  let entry w (e : Log.entry) =
    Ballot.encode w e.Log.ballot;
    Log.encode_kind w e.Log.kind
  in
  Ballot.encode w t.promised;
  (match t.role with
   | R_follower -> W.u8 w 0
   | R_candidate c ->
     W.u8 w 1;
     Ballot.encode w c.c_ballot;
     node_set w c.promised_from;
     W.list w
       (fun w (slot, e) ->
         W.varint w slot;
         entry w e)
       (List.rev
          (Stable.fold_sorted ~compare:Int.compare
             (fun k v acc -> (k, v) :: acc)
             c.merged []));
     W.varint w c.from_index
   | R_leader l ->
     W.u8 w 2;
     Ballot.encode w l.l_ballot;
     W.varint w l.next_index;
     W.varint w l.resend_below;
     let entries = ref [] in
     for k = Array.length l.acks - 1 downto 0 do
       if l.acks.(k) <> 0 then
         entries := (l.acks_lo + k, l.acks.(k)) :: !entries
     done;
     W.list w
       (fun w (slot, mask) ->
         W.varint w slot;
         W.list w node
           (List.sort Node_id.compare (members_of mask t.cfg.Config.members)))
       !entries);
  W.option w node t.hint;
  W.varint w t.deliver_index;
  W.varint w t.known_committed;
  Ballot.encode w t.known_committed_ballot;
  W.list w W.string
    (List.rev (Queue.fold (fun acc v -> v :: acc) [] t.pending));
  W.list w W.string (Batch.contents t.batch);
  W.bool w (Batch.armed t.batch);
  W.bool w (Engine.armed t.election_timer);
  W.bool w (Engine.armed t.hb_timer);
  W.bool w (Engine.armed t.resend_timer);
  W.bool w t.learn_inflight;
  W.bool w t.halted;
  W.varint w (Log.length t.log);
  List.iter
    (fun (slot, e) ->
      W.varint w slot;
      entry w e;
      W.bool w (Log.is_committed t.log slot))
    (Log.entries_from t.log 0);
  W.contents w
[@@rsmr.deterministic] [@@rsmr.codec.oneway]
