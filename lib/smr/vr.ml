module Engine = Rsmr_sim.Engine
module Batch = Rsmr_sim.Batch
module Rng = Rsmr_sim.Rng
module Node_id = Rsmr_net.Node_id
module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

let block_name = "vr"

module Msg = struct
  type t =
    | Request of { value : string }
    | Prepare of { view : int; op : int; value : string; commit : int }
    | Prepare_ok of { view : int; op : int }
    | Commit of { view : int; commit : int }
    | Start_view_change of { view : int }
    | Do_view_change of {
        view : int;
        log : string list;
        last_normal : int;
        commit : int;
      }
    | Start_view of { view : int; log : string list; commit : int }
    | Get_state of { view : int; from : int }
    | New_state of { view : int; from : int; ops : string list; commit : int }
    | Request_multi of { values : string list }
        (** forwarded vector submission, proposed as one batch *)
    | Prepare_multi of {
        view : int;
        from_op : int;
        values : string list;  (** consecutive ops from [from_op] *)
        commit : int;
      }
    | Prepare_ok_multi of { view : int; from_op : int; upto : int }

  (* Single wire-format body shared by [encode] (buffer sink) and
     [size] (counting sink). *)
  let write w t =
    match t with
    | Request { value } ->
      W.u8 w 0;
      W.string w value
    | Prepare { view; op; value; commit } ->
      W.u8 w 1;
      W.varint w view;
      W.varint w op;
      W.string w value;
      W.varint w commit
    | Prepare_ok { view; op } ->
      W.u8 w 2;
      W.varint w view;
      W.varint w op
    | Commit { view; commit } ->
      W.u8 w 3;
      W.varint w view;
      W.varint w commit
    | Start_view_change { view } ->
      W.u8 w 4;
      W.varint w view
    | Do_view_change { view; log; last_normal; commit } ->
      W.u8 w 5;
      W.varint w view;
      W.list w W.string log;
      W.varint w last_normal;
      W.varint w commit
    | Start_view { view; log; commit } ->
      W.u8 w 6;
      W.varint w view;
      W.list w W.string log;
      W.varint w commit
    | Get_state { view; from } ->
      W.u8 w 7;
      W.varint w view;
      W.varint w from
    | New_state { view; from; ops; commit } ->
      W.u8 w 8;
      W.varint w view;
      W.varint w from;
      W.list w W.string ops;
      W.varint w commit
    | Request_multi { values } ->
      W.u8 w 9;
      W.list w W.string values
    | Prepare_multi { view; from_op; values; commit } ->
      W.u8 w 10;
      W.varint w view;
      W.varint w from_op;
      W.list w W.string values;
      W.varint w commit
    | Prepare_ok_multi { view; from_op; upto } ->
      W.u8 w 11;
      W.varint w view;
      W.varint w from_op;
      W.varint w upto

  let read r =
    match R.u8 r with
    | 0 -> Request { value = R.string r }
    | 1 ->
      let view = R.varint r in
      let op = R.varint r in
      let value = R.string r in
      Prepare { view; op; value; commit = R.varint r }
    | 2 ->
      let view = R.varint r in
      Prepare_ok { view; op = R.varint r }
    | 3 ->
      let view = R.varint r in
      Commit { view; commit = R.varint r }
    | 4 -> Start_view_change { view = R.varint r }
    | 5 ->
      let view = R.varint r in
      let log = R.list r R.string in
      let last_normal = R.varint r in
      Do_view_change { view; log; last_normal; commit = R.varint r }
    | 6 ->
      let view = R.varint r in
      let log = R.list r R.string in
      Start_view { view; log; commit = R.varint r }
    | 7 ->
      let view = R.varint r in
      Get_state { view; from = R.varint r }
    | 8 ->
      let view = R.varint r in
      let from = R.varint r in
      let ops = R.list r R.string in
      New_state { view; from; ops; commit = R.varint r }
    | 9 -> Request_multi { values = R.list r R.string }
    | 10 ->
      let view = R.varint r in
      let from_op = R.varint r in
      let values = R.list r R.string in
      Prepare_multi { view; from_op; values; commit = R.varint r }
    | 11 ->
      let view = R.varint r in
      let from_op = R.varint r in
      Prepare_ok_multi { view; from_op; upto = R.varint r }
    | _ -> raise Rsmr_app.Codec.Truncated

  let encode t = W.to_string write t

  let decode s = read (R.of_string s)

  let size t = W.size write t

  (* Tag from the leading wire byte alone, so the network tagger can
     classify an encoded payload without a full decode.  The one tag
     table: [tag] is defined through it. *)
  let tag_of_encoded s =
    if String.length s = 0 then "invalid"
    else
      match Char.code s.[0] with
      | 0 -> "request"
      | 1 -> "prepare"
      | 2 -> "prepare_ok"
      | 3 -> "commit"
      | 4 -> "start_view_change"
      | 5 -> "do_view_change"
      | 6 -> "start_view"
      | 7 -> "get_state"
      | 8 -> "new_state"
      | 9 -> "request_multi"
      | 10 -> "prepare_multi"
      | 11 -> "prepare_ok_multi"
      | _ -> "invalid"

  let tag m = tag_of_encoded (encode m)
end

type dvc = { d_log : string list; d_last_normal : int; d_commit : int }

type status =
  | Normal
  | View_change of {
      mutable svc_from : Node_id.Set.t;
      mutable dvc : (Node_id.t * dvc) list;
    }

type t = {
  engine : Engine.t;
  params : Params.t;
  cfg : Config.t;
  members : Node_id.t array;
  me : Node_id.t;
  send : dst:Node_id.t -> Msg.t -> unit;
  bcast : (Msg.t -> unit) option;
  on_decide : int -> string -> unit;
  rng : Rng.t;
  mutable view : int;
  mutable status : status;
  mutable last_normal : int;
  mutable log : string array;
  mutable len : int;
  mutable commit : int;  (* ops [0 .. commit-1] are committed *)
  mutable executed : int;
  acks : (int, Node_id.Set.t ref) Hashtbl.t;
  pending : string Queue.t;
  batch : string Batch.t; (* primary only *)
  mutable view_timer : Engine.timer option;
  mutable hb_timer : Engine.timer option;
  mutable resend_timer : Engine.timer option;
  (* [len] at the primary's last resend tick (or view start): only ops
     below it have waited a whole [resend_interval] and may be re-sent. *)
  mutable resend_below : int;
  mutable halted : bool;
  c_view_changes : int ref;
  c_resent : int ref;
}

let n_members t = Array.length t.members

(* A true majority, not the textbook f+1 with f = (n-1)/2: for even n
   (a reconfiguration onto a 2- or 4-node slice of the pool) two f+1
   quorums need not intersect. *)
let quorum t = Config.quorum t.cfg
let primary_of t view = t.members.(view mod n_members t)
let primary t = primary_of t t.view
let is_primary t = Node_id.equal (primary t) t.me

let is_leader t =
  (not t.halted) && t.status = Normal && is_primary t

let leader_hint t = if t.halted then None else Some (primary t)
let commit_index t = t.commit
let is_halted t = t.halted
let view t = t.view

let submit_msg value = Msg.Request { value }
let submit_many_msg values = Msg.Request_multi { values }

let log_list t = Array.to_list (Array.sub t.log 0 t.len)

let append t value =
  if t.len = Array.length t.log then begin
    let ncap = max 64 (2 * Array.length t.log) in
    let nl = Array.make ncap "" in
    Array.blit t.log 0 nl 0 t.len;
    t.log <- nl
  end;
  t.log.(t.len) <- value;
  t.len <- t.len + 1

let set_log t ops commit =
  t.log <- Array.of_list ops;
  t.len <- Array.length t.log;
  if commit > t.commit then t.commit <- commit

let execute t =
  while t.executed < min t.commit t.len && not t.halted do
    t.on_decide t.executed t.log.(t.executed);
    t.executed <- t.executed + 1
  done

(* Same message to every other member: hand the whole fan-out to the
   transport when it gave us a broadcast hook (it then encodes the
   payload exactly once), else fall back to per-destination sends. *)
let broadcast t msg =
  match t.bcast with
  | Some f -> f msg
  | None ->
    Array.iter
      (fun dst -> if not (Node_id.equal dst t.me) then t.send ~dst msg)
      t.members

(* Normal-case replication is a run of consecutive ops; a run of one
   travels as the compact single-op encoding. *)
let prepare_msg ~view ~from_op ~commit values =
  match values with
  | [ value ] -> Msg.Prepare { view; op = from_op; value; commit }
  | _ -> Msg.Prepare_multi { view; from_op; values; commit }

let prepare_ok_msg ~view ~from_op ~upto =
  if upto = from_op then Msg.Prepare_ok { view; op = from_op }
  else Msg.Prepare_ok_multi { view; from_op; upto }

(* A primary losing its status (view change) returns unproposed batched
   values to pending so they get forwarded to whoever leads next. *)
let park_batch t =
  List.iter (fun v -> Queue.push v t.pending) (Batch.drain t.batch)

(* --- timers --- *)

let rec reset_view_timer t =
  t.view_timer <- Engine.cancel_opt t.engine t.view_timer;
  if not t.halted then begin
    let delay =
      Rng.uniform_in t.rng t.params.Params.election_timeout_min
        t.params.Params.election_timeout_max
    in
    t.view_timer <-
      Some (Engine.schedule t.engine ~delay (fun () -> on_view_timeout t))
  end

and on_view_timeout t =
  if (not t.halted) && not (is_leader t) then start_view_change t (t.view + 1)
  else if not t.halted then reset_view_timer t

and start_view_change t new_view =
  if new_view > t.view || (new_view = t.view && t.status = Normal) then begin
    incr t.c_view_changes;
    park_batch t;
    t.view <- new_view;
    t.status <- View_change { svc_from = Node_id.Set.singleton t.me; dvc = [] };
    broadcast t (Msg.Start_view_change { view = new_view });
    reset_view_timer t;
    check_svc_quorum t
  end

and check_svc_quorum t =
  match t.status with
  | View_change vc ->
    if Node_id.Set.cardinal vc.svc_from >= quorum t then begin
      let msg =
        Msg.Do_view_change
          {
            view = t.view;
            log = log_list t;
            last_normal = t.last_normal;
            commit = t.commit;
          }
      in
      let p = primary t in
      if Node_id.equal p t.me then
        on_do_view_change t ~src:t.me ~view:t.view ~log:(log_list t)
          ~last_normal:t.last_normal ~commit:t.commit
      else t.send ~dst:p msg
    end
  | Normal -> ()

and on_do_view_change t ~src ~view ~log ~last_normal ~commit =
  if view = t.view && Node_id.equal (primary t) t.me then
    match t.status with
    | View_change vc ->
      if not (List.mem_assoc src vc.dvc) then
        vc.dvc <-
          (src, { d_log = log; d_last_normal = last_normal; d_commit = commit })
          :: vc.dvc;
      if List.length vc.dvc >= quorum t then begin
        (* Adopt the log of the DVC with the highest (last_normal, length). *)
        let best =
          List.fold_left
            (fun acc (_, d) ->
              match acc with
              | None -> Some d
              | Some cur ->
                if
                  (d.d_last_normal, List.length d.d_log)
                  > (cur.d_last_normal, List.length cur.d_log)
                then Some d
                else acc)
            None vc.dvc
        in
        (match best with
         | Some d ->
           let max_commit =
             List.fold_left (fun acc (_, d) -> max acc d.d_commit) 0 vc.dvc
           in
           set_log t d.d_log max_commit
         | None -> ());
        t.status <- Normal;
        t.last_normal <- t.view;
        Hashtbl.reset t.acks;
        (* Uncommitted suffix needs fresh quorums in this view. *)
        for op = t.commit to t.len - 1 do
          Hashtbl.replace t.acks op (ref (Node_id.Set.singleton t.me))
        done;
        broadcast t
          (Msg.Start_view { view = t.view; log = log_list t; commit = t.commit });
        execute t;
        maybe_commit_solo t;
        start_heartbeat t;
        start_resend t;
        drain_pending t
      end
    | Normal -> ()

and maybe_commit_solo t =
  if quorum t = 1 && is_leader t then begin
    t.commit <- t.len;
    Hashtbl.reset t.acks;
    execute t;
    Batch.pump t.batch
  end

and advance_commit t =
  let continue = ref true in
  while !continue && t.commit < t.len do
    match Hashtbl.find_opt t.acks t.commit with
    | Some acked when Node_id.Set.cardinal !acked >= quorum t ->
      Hashtbl.remove t.acks t.commit;
      t.commit <- t.commit + 1
    | Some _ | None -> continue := false
  done;
  execute t

(* Primary-side batching ({!Batch} owns the window) + pipelining, as in
   {!Replica}: one flush prepares the buffered values as one run of ops (a
   single value is a run of one), with at most max_outstanding uncommitted
   ops in flight; the overflow stays buffered until commit progress pumps
   it. *)
and flush_batch t =
  if is_leader t then
    let cap = t.params.Params.max_outstanding - (t.len - t.commit) in
    match Batch.take t.batch cap with
    | [] -> ()
    | values ->
      let from_op = t.len in
      List.iter
        (fun value ->
          let op = t.len in
          append t value;
          Hashtbl.replace t.acks op (ref (Node_id.Set.singleton t.me)))
        values;
      broadcast t (prepare_msg ~view:t.view ~from_op ~commit:t.commit values);
      maybe_commit_solo t

and drain_pending t =
  let rec drain f =
    match Queue.take_opt t.pending with
    | Some value ->
      f value;
      drain f
    | None -> ()
  in
  if is_leader t then begin
    drain (fun value -> Batch.add t.batch value);
    flush_batch t
  end
  else if t.status = Normal then begin
    let p = primary t in
    if not (Node_id.equal p t.me) then begin
      (* Forward everything queued as one vector submission. *)
      let values = ref [] in
      drain (fun value -> values := value :: !values);
      match List.rev !values with
      | [] -> ()
      | [ value ] -> t.send ~dst:p (Msg.Request { value })
      | values -> t.send ~dst:p (Msg.Request_multi { values })
    end
  end

and start_heartbeat t =
  t.hb_timer <- Engine.cancel_opt t.engine t.hb_timer;
  let rec tick () =
    if is_leader t then begin
      broadcast t (Msg.Commit { view = t.view; commit = t.commit });
      t.hb_timer <-
        Some (Engine.schedule t.engine ~delay:t.params.Params.heartbeat_interval tick)
    end
  in
  t.hb_timer <-
    Some (Engine.schedule t.engine ~delay:t.params.Params.heartbeat_interval tick)

and start_resend t =
  t.resend_timer <- Engine.cancel_opt t.engine t.resend_timer;
  t.resend_below <- t.len;
  let rec tick () =
    if is_leader t then begin
      (* Re-prepare the uncommitted suffix (lost Prepares / PrepareOKs) as
         one run per follower, bounded by the pipeline window.  Ops
         prepared since the previous tick have not yet waited a whole
         interval for their acks, so they are not stuck. *)
      let hi =
        min (min t.len t.resend_below)
          (t.commit + t.params.Params.max_outstanding)
      in
      if hi > t.commit then begin
        t.c_resent := !(t.c_resent) + (hi - t.commit);
        broadcast t
          (prepare_msg ~view:t.view ~from_op:t.commit ~commit:t.commit
             (Array.to_list (Array.sub t.log t.commit (hi - t.commit))))
      end;
      t.resend_below <- t.len;
      t.resend_timer <-
        Some (Engine.schedule t.engine ~delay:Params.resend_interval tick)
    end
  in
  t.resend_timer <-
    Some (Engine.schedule t.engine ~delay:Params.resend_interval tick)

(* --- normal-protocol handlers --- *)

let behind t view = view > t.view

let catch_up t view =
  (* A view completed without us; fetch the authoritative state from its
     primary rather than guessing.  Request from our commit point, not
     our log end: only the committed prefix is stable across view
     changes — our uncommitted suffix may have been replaced by the view
     we missed, so it must be re-fetched, never trusted. *)
  t.send ~dst:(primary_of t view) (Msg.Get_state { view; from = t.commit })

(* A run of consecutive values from [from_op].  Appends the portion past
   our log end, re-acks duplicates, and answers with one ack covering the
   whole run. *)
let on_prepare t ~src ~view ~from_op ~values ~commit =
  if behind t view then catch_up t view
  else if view = t.view && t.status = Normal && not (is_primary t) then begin
    reset_view_timer t;
    let n = List.length values in
    if from_op > t.len then
      (* Gap: lost earlier prepares. *)
      t.send ~dst:src (Msg.Get_state { view; from = t.commit })
    else begin
      List.iteri
        (fun offset value -> if from_op + offset = t.len then append t value)
        values;
      t.send ~dst:src (prepare_ok_msg ~view ~from_op ~upto:(from_op + n - 1))
    end;
    if commit > t.commit then begin
      t.commit <- min commit t.len;
      execute t
    end
  end

let on_prepare_ok t ~src ~view ~from_op ~upto =
  if view = t.view && is_leader t then begin
    for op = from_op to upto do
      match Hashtbl.find_opt t.acks op with
      | Some acked -> acked := Node_id.Set.add src !acked
      | None -> () (* already committed *)
    done;
    advance_commit t;
    Batch.pump t.batch
  end

let on_commit t ~view ~commit =
  if behind t view then catch_up t view
  else if view = t.view && t.status = Normal && not (is_primary t) then begin
    reset_view_timer t;
    if commit > t.commit then begin
      if commit > t.len then
        t.send ~dst:(primary t) (Msg.Get_state { view; from = t.commit });
      t.commit <- min commit t.len;
      execute t
    end
  end

let on_start_view t ~view ~log ~commit =
  (* Never reprocess a Start_view for a view we are already Normal in: a
     delayed duplicate would wholesale-replace a log that has since grown
     (and been partially executed) in that very view. *)
  if view > t.view || (view = t.view && t.status <> Normal) then begin
    park_batch t;
    t.view <- view;
    t.status <- Normal;
    t.last_normal <- view;
    set_log t log commit;
    t.commit <- min commit t.len;
    Hashtbl.reset t.acks;
    execute t;
    reset_view_timer t;
    (* Ack the uncommitted suffix to the new primary in one message. *)
    let p = primary t in
    if t.len > t.commit then
      t.send ~dst:p (prepare_ok_msg ~view ~from_op:t.commit ~upto:(t.len - 1));
    drain_pending t
  end

let on_get_state t ~src ~view ~from =
  if view = t.view && t.status = Normal then begin
    let upto = t.len in
    if upto > from then begin
      let ops = Array.to_list (Array.sub t.log from (upto - from)) in
      t.send ~dst:src (Msg.New_state { view; from; ops; commit = t.commit })
    end
    else
      t.send ~dst:src (Msg.New_state { view; from; ops = []; commit = t.commit })
  end

let on_new_state t ~view ~from ~ops ~commit =
  if
    view > t.view
    || (view = t.view && not (t.status = Normal && is_primary t))
  then begin
    if view > t.view then begin
      park_batch t;
      t.view <- view;
      t.status <- Normal;
      t.last_normal <- view
    end;
    (* Splice, don't append: everything from [from] is replaced by the
       sender's authoritative suffix (our own copy of those slots may be
       a stale uncommitted run from a view we missed).  [from < commit]
       would be a stale response to an old request — ignore it, the
       committed prefix is already correct and must not be truncated. *)
    if from >= t.commit && from <= t.len then begin
      t.len <- from;
      List.iter (fun v -> append t v) ops
    end;
    if commit > t.commit then t.commit <- min commit t.len;
    execute t;
    reset_view_timer t
  end

let submit t value =
  if not t.halted then begin
    if is_leader t then Batch.add t.batch value
    else begin
      Queue.push value t.pending;
      drain_pending t
    end
  end
[@@rsmr.deterministic] [@@rsmr.total]

(* Vector submission: proposed (or forwarded) as one multi-op run
   regardless of the batching window, preserving order. *)
let submit_many t values =
  if (not t.halted) && values <> [] then begin
    if is_leader t then begin
      List.iter (fun value -> Batch.push t.batch value) values;
      flush_batch t
    end
    else begin
      List.iter (fun value -> Queue.push value t.pending) values;
      drain_pending t
    end
  end
[@@rsmr.deterministic] [@@rsmr.total]

(* Whether [src] is among [members] from position [k]: a top-level loop,
   so the check allocates no closure. *)
let rec member_from members src k =
  k < Array.length members
  && (Node_id.equal members.(k) src || member_from members src (k + 1))

let handle t ~src msg =
  if not t.halted then
    match (msg : Msg.t) with
    | Msg.Request { value } -> submit t value
    | Msg.Request_multi { values } -> submit_many t values
    | _ when not (member_from t.members src 0) ->
      (* Only members replicate, vote and change views.  Anyone may
         submit: an old epoch's leader forwards residuals as a
         non-member. *)
      ()
    | Msg.Prepare { view; op; value; commit } ->
      on_prepare t ~src ~view ~from_op:op ~values:[ value ] ~commit
    | Msg.Prepare_multi { view; from_op; values; commit } ->
      on_prepare t ~src ~view ~from_op ~values ~commit
    | Msg.Prepare_ok { view; op } -> on_prepare_ok t ~src ~view ~from_op:op ~upto:op
    | Msg.Prepare_ok_multi { view; from_op; upto } ->
      on_prepare_ok t ~src ~view ~from_op ~upto
    | Msg.Commit { view; commit } -> on_commit t ~view ~commit
    | Msg.Start_view_change { view } ->
      if view > t.view then start_view_change t view;
      (* Count the sender's vote whether we just joined this view change or
         were already in it. *)
      if view = t.view then begin
        match t.status with
        | View_change vc ->
          vc.svc_from <- Node_id.Set.add src vc.svc_from;
          check_svc_quorum t
        | Normal -> ()
      end
    | Msg.Do_view_change { view; log; last_normal; commit } ->
      if view > t.view then start_view_change t view;
      on_do_view_change t ~src ~view ~log ~last_normal ~commit
    | Msg.Start_view { view; log; commit } -> on_start_view t ~view ~log ~commit
    | Msg.Get_state { view; from } -> on_get_state t ~src ~view ~from
    | Msg.New_state { view; from; ops; commit } ->
      on_new_state t ~view ~from ~ops ~commit
[@@rsmr.deterministic] [@@rsmr.total]

let halt t =
  if not t.halted then begin
    t.halted <- true;
    t.view_timer <- Engine.cancel_opt t.engine t.view_timer;
    t.hb_timer <- Engine.cancel_opt t.engine t.hb_timer;
    t.resend_timer <- Engine.cancel_opt t.engine t.resend_timer;
    Batch.cancel t.batch
  end

let create ~engine ~params ~config ~me ~send ?broadcast ?obs ~on_decide () =
  if not (Config.is_member config me) then
    invalid_arg "Vr.create: not a member of the configuration";
  let metric =
    match obs with
    | Some reg ->
      Rsmr_obs.Registry.scope_counter
        (Rsmr_obs.Registry.scope ~node:me ~epoch:config.Config.instance_id reg)
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
      cfg = config;
      members = Array.of_list config.Config.members;
      me;
      send;
      bcast = broadcast;
      on_decide;
      rng = Rng.split (Engine.rng engine);
      view = 0;
      status = Normal;
      last_normal = 0;
      log = [||];
      len = 0;
      commit = 0;
      executed = 0;
      acks = Hashtbl.create 64;
      pending = Queue.create ();
      batch;
      view_timer = None;
      hb_timer = None;
      resend_timer = None;
      resend_below = 0;
      halted = false;
      c_view_changes = metric "view_changes";
      c_resent = metric "resent";
    }
  in
  self := Some t;
  (* View 0's primary is live from the start — no election needed. *)
  if is_primary t then begin
    start_heartbeat t;
    start_resend t
  end
  else reset_view_timer t;
  t

(* Canonical fingerprint (the Block_intf contract); same exclusion rules
   as {!Replica.fingerprint}: no timer due-times, RNG or metrics, but
   timer presence and every behaviour-bearing field, with unordered
   collections in sorted order. *)
let fingerprint t =
  let w = W.create ~size_hint:256 () in
  let node w n = W.varint w (n : Node_id.t) in
  let node_set w s = W.list w node (Node_id.Set.elements s) in
  W.varint w t.view;
  (match t.status with
   | Normal -> W.u8 w 0
   | View_change { svc_from; dvc } ->
     W.u8 w 1;
     node_set w svc_from;
     W.list w
       (fun w (n, d) ->
         node w n;
         W.list w W.string d.d_log;
         W.varint w d.d_last_normal;
         W.varint w d.d_commit)
       (List.sort (fun (a, _) (b, _) -> Int.compare a b) dvc));
  W.varint w t.last_normal;
  W.list w W.string (log_list t);
  W.varint w t.commit;
  W.varint w t.executed;
  W.list w
    (fun w (op, s) ->
      W.varint w op;
      node_set w s)
    (List.rev
       (Rsmr_sim.Stable.fold_sorted ~compare:Int.compare
          (fun k v acc -> (k, !v) :: acc)
          t.acks []));
  W.list w W.string
    (List.rev (Queue.fold (fun acc v -> v :: acc) [] t.pending));
  W.list w W.string (Batch.contents t.batch);
  W.bool w (Batch.armed t.batch);
  W.bool w (Engine.armed t.view_timer);
  W.bool w (Engine.armed t.hb_timer);
  W.bool w (Engine.armed t.resend_timer);
  W.varint w t.resend_below;
  W.bool w t.halted;
  W.contents w
[@@rsmr.codec.oneway]
