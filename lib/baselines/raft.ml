module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Obs = Rsmr_obs.Registry
module Stable = Rsmr_sim.Stable
module Network = Rsmr_net.Network
module Node_id = Rsmr_net.Node_id
module Params = Rsmr_smr.Params
module Session = Rsmr_core.Session
module Snapshot = Rsmr_core.Snapshot
module Front = Rsmr_core.Front
module Client_msg = Rsmr_client.Client_msg

(* How [Raft_wire.t] carries the client and directory messages. *)
let recv_edge (h : Front.handler) (env : Raft_wire.t Network.envelope) =
  match env.Network.payload with
  | Raft_wire.Client msg -> h.Front.on_client ~src:env.Network.src msg
  | Raft_wire.Dir_update { epoch; members; leader } ->
    h.Front.on_update ~epoch ~members ~leader
  | Raft_wire.Dir_lookup -> h.Front.on_lookup ~src:env.Network.src
  | Raft_wire.Dir_info { epoch; members; leader } ->
    h.Front.on_info ~epoch ~members ~leader
  | Raft_wire.Rpc _ -> ()
[@@rsmr.deterministic] [@@rsmr.total]

let front_wire =
  {
    Front.to_client = (fun msg -> Raft_wire.Client msg);
    lookup = Raft_wire.Dir_lookup;
    info =
      (fun ~epoch ~members ~leader ->
        Raft_wire.Dir_info { epoch; members; leader });
    recv = recv_edge;
  }

module Make (Sm : Rsmr_app.State_machine.S) = struct
  (* An in-progress chunked snapshot transfer to one follower.  The blob is
     pinned at start so compaction during the transfer cannot tear it. *)
  type snap_xfer = {
    sx_data : string;
    sx_last_index : int;
    sx_last_term : int;
    sx_members : Node_id.t list;
    mutable sx_offset : int;
  }

  type leader_state = {
    next : (Node_id.t, int) Hashtbl.t;
    matched : (Node_id.t, int) Hashtbl.t;
    snap_sending : (Node_id.t, snap_xfer) Hashtbl.t;
    snap_inflight : (Node_id.t, float) Hashtbl.t;
        (* send time of the unacknowledged chunk per follower, for retry *)
  }

  type role = Follower | Candidate of Node_id.Set.t | Leader of leader_state

  type node = {
    me : Node_id.t;
    mutable term : int;
    mutable voted_for : Node_id.t option;
    log : Raft_log.t;
    mutable commit : int;
    mutable applied : int;
    mutable config : Node_id.t list; (* effective: latest appended Config *)
    mutable config_index : int; (* log index of latest applied Config *)
    mutable snap_members : Node_id.t list;
    mutable snapshot_data : string;
    mutable role : role;
    mutable leader_hint : Node_id.t option;
    mutable app : Sm.t;
    mutable sessions : Session.t;
    mutable pending_target :
      (Node_id.t list * Node_id.t * int) option; (* target, admin, seq *)
    snap_in : Buffer.t; (* partially received chunked snapshot *)
    mutable election_timer : Engine.timer option;
    mutable hb_timer : Engine.timer option;
    mutable batch_timer : Engine.timer option;
    mutable batch_n : int; (* entries appended since the last broadcast *)
    mutable halted : bool;
    rng : Rng.t;
    n_applied : int ref;  (* {node}-scoped registry cell, resolved once *)
  }

  type t = {
    engine : Engine.t;
    net : Raft_wire.t Network.t;
    params : Params.t;
    snapshot_threshold : int;
    nodes : (Node_id.t, node) Hashtbl.t;
    front : Raft_wire.t Front.t;
    svc : Obs.scope;  (* the run-level {section=svc} counts *)
    obs : Obs.t;
  }

  let net t = t.net
  let directory_id t = Front.dir_id t.front
  let counters t = Obs.counters t.obs "svc"

  let node_opt t id = Hashtbl.find_opt t.nodes id
  let config_of t id = Option.map (fun n -> n.config) (node_opt t id)
  let app_state t id = Option.map (fun n -> n.app) (node_opt t id)

  let leader t =
    Stable.fold_sorted ~compare:Node_id.compare
      (fun id n acc ->
        match n.role with
        | Leader _ when (not n.halted) && not (Network.is_crashed t.net id) ->
          Some id
        | _ -> acc)
      t.nodes None

  let is_member node = List.exists (Node_id.equal node.me) node.config
  let quorum config = (List.length config / 2) + 1
  let peers node = List.filter (fun m -> not (Node_id.equal m node.me)) node.config

  let send t node ~dst msg =
    Network.send t.net ~src:node.me ~dst (Raft_wire.Rpc msg)

  let reply_client t node ~client ~seq ~rsp =
    incr (Obs.scope_counter t.svc "replies");
    Network.send t.net ~src:node.me ~dst:client
      (Raft_wire.Client (Client_msg.Reply { seq; rsp }))

  (* Only a node that is not serving redirects, so a hint naming itself
     (a deposed or removed leader's stale one) is never right. *)
  let redirect t node ~src seq =
    incr (Obs.scope_counter t.svc "redirects");
    let leader =
      match node.leader_hint with
      | Some l when Node_id.equal l node.me -> None
      | hint -> hint
    in
    Network.send t.net ~src:node.me ~dst:src
      (Raft_wire.Client
         (Client_msg.Redirect
            { seq; leader; members = node.config; epoch = node.config_index }))

  let dir_update t node =
    Network.send t.net ~src:node.me ~dst:(Front.dir_id t.front)
      (Raft_wire.Dir_update
         {
           epoch = node.config_index;
           members = node.config;
           leader =
             (match node.role with Leader _ -> Some node.me | _ -> None);
         })

  let refresh_config node =
    node.config <-
      (match Raft_log.latest_config node.log with
       | Some members -> members
       | None -> node.snap_members)

  let sorted members = List.sort_uniq Node_id.compare members

  (* --- timers / elections --- *)

  let rec reset_election_timer t node =
    node.election_timer <- Engine.cancel_opt t.engine node.election_timer;
    if not node.halted then begin
      let delay =
        Rng.uniform_in node.rng t.params.Params.election_timeout_min
          t.params.Params.election_timeout_max
      in
      node.election_timer <-
        Some
          (Engine.schedule t.engine ~delay (fun () -> on_election_timeout t node))
    end

  and on_election_timeout t node =
    if (not node.halted) && is_member node then begin
      match node.role with
      | Leader _ -> ()
      | Follower | Candidate _ -> start_election t node
    end
    else if not node.halted then reset_election_timer t node

  and start_election t node =
    incr (Obs.scope_counter t.svc "elections");
    node.term <- node.term + 1;
    node.voted_for <- Some node.me;
    node.role <- Candidate (Node_id.Set.singleton node.me);
    node.leader_hint <- None;
    let msg =
      Raft_msg.Request_vote
        {
          term = node.term;
          last_index = Raft_log.last_index node.log;
          last_term = Raft_log.last_term node.log;
        }
    in
    (* One wire value for the whole fan-out: the network sizes and tags a
       broadcast payload once instead of once per peer. *)
    Network.broadcast t.net ~src:node.me ~dsts:(peers node)
      (Raft_wire.Rpc msg);
    reset_election_timer t node;
    maybe_win t node

  and maybe_win t node =
    match node.role with
    | Candidate votes ->
      let supporters =
        List.filter (fun m -> Node_id.Set.mem m votes) node.config
      in
      if List.length supporters >= quorum node.config then become_leader t node
    | Follower | Leader _ -> ()

  and become_leader t node =
    incr (Obs.scope_counter t.svc "takeovers");
    let ls =
      {
        next = Hashtbl.create 8;
        matched = Hashtbl.create 8;
        snap_sending = Hashtbl.create 8;
        snap_inflight = Hashtbl.create 8;
      }
    in
    let last = Raft_log.last_index node.log in
    List.iter
      (fun m ->
        Hashtbl.replace ls.next m (last + 1);
        Hashtbl.replace ls.matched m 0)
      (peers node);
    node.role <- Leader ls;
    node.leader_hint <- Some node.me;
    (* Standard: commit a no-op to pin down the commit index in this term. *)
    ignore (Raft_log.append node.log { Raft_log.term = node.term; payload = Raft_log.Noop });
    broadcast_appends t node;
    start_heartbeat t node;
    dir_update t node;
    try_next_step t node

  and start_heartbeat t node =
    node.hb_timer <- Engine.cancel_opt t.engine node.hb_timer;
    let rec tick () =
      match node.role with
      | Leader _ when not node.halted ->
        broadcast_appends t node;
        node.hb_timer <-
          Some
            (Engine.schedule t.engine ~delay:t.params.Params.heartbeat_interval
               tick)
      | _ -> ()
    in
    node.hb_timer <-
      Some (Engine.schedule t.engine ~delay:t.params.Params.heartbeat_interval tick)

  and step_down ?(keep_armed = false) t node ~term =
    if term > node.term then begin
      node.term <- term;
      node.voted_for <- None
    end;
    (match node.role with
     | Leader _ | Candidate _ ->
       node.role <- Follower;
       node.hb_timer <- Engine.cancel_opt t.engine node.hb_timer;
       node.batch_timer <- Engine.cancel_opt t.engine node.batch_timer;
       node.batch_n <- 0
     | Follower -> ());
    if not (keep_armed && Engine.armed node.election_timer) then
      reset_election_timer t node

  (* --- replication --- *)

  and broadcast_appends t node =
    match node.role with
    | Leader _ -> List.iter (fun f -> send_append_to t node f) (peers node)
    | Follower | Candidate _ -> ()

  (* Leader-side batching, matching the Paxos/VR blocks: client appends
     accumulate for batch_delay (or batch_max entries) and go out as one
     multi-entry Append per follower instead of one broadcast each. *)
  and schedule_appends t node =
    if t.params.Params.batch_delay <= 0.0 then begin
      broadcast_appends t node;
      advance_commit t node
    end
    else begin
      node.batch_n <- node.batch_n + 1;
      if node.batch_n >= t.params.Params.batch_max then flush_appends t node
      else if node.batch_timer = None then
        node.batch_timer <-
          Some
            (Engine.schedule t.engine ~delay:t.params.Params.batch_delay
               (fun () ->
                 node.batch_timer <- None;
                 flush_appends t node))
    end

  and flush_appends t node =
    node.batch_timer <- Engine.cancel_opt t.engine node.batch_timer;
    node.batch_n <- 0;
    match node.role with
    | Leader _ when not node.halted ->
      broadcast_appends t node;
      advance_commit t node
    | _ -> ()

  and send_append_to t node f =
    match node.role with
    | Leader ls ->
      let next =
        Option.value (Hashtbl.find_opt ls.next f)
          ~default:(Raft_log.last_index node.log + 1)
      in
      if next <= Raft_log.base_index node.log then begin
        let now = Engine.now t.engine in
        let in_flight =
          match Hashtbl.find_opt ls.snap_inflight f with
          | Some sent -> now -. sent < 1.0
          | None -> false
        in
        if not in_flight then begin
          (match Hashtbl.find_opt ls.snap_sending f with
           | Some _ -> () (* resume: retransmit the current chunk below *)
           | None ->
             incr (Obs.scope_counter t.svc "snapshots_sent");
             Hashtbl.replace ls.snap_sending f
               {
                 sx_data = node.snapshot_data;
                 sx_last_index = Raft_log.base_index node.log;
                 sx_last_term = Raft_log.base_term node.log;
                 sx_members = node.snap_members;
                 sx_offset = 0;
               });
          send_snapshot_chunk t node ls f
        end
      end
      else begin
        let prev_index = next - 1 in
        let prev_term =
          Option.value (Raft_log.term_at node.log prev_index) ~default:0
        in
        let entries =
          Raft_log.entries_from node.log next
            ~max:t.params.Params.max_outstanding
        in
        (* Optimistic pipelining: advance next as soon as entries are sent,
           so each log entry crosses the wire once in the common case
           (re-sending the whole unacked window on every heartbeat melts
           the leader's uplink under load).  A lost reply heals via the
           prev-mismatch probe, which resets next from the failure hint. *)
        (match List.rev entries with
         | (last_sent, _) :: _ -> Hashtbl.replace ls.next f (last_sent + 1)
         | [] -> ());
        send t node ~dst:f
          (Raft_msg.Append
             { term = node.term; prev_index; prev_term; entries; commit = node.commit })
      end
    | Follower | Candidate _ -> ()

  and send_snapshot_chunk t node ls f =
    match Hashtbl.find_opt ls.snap_sending f with
    | None -> ()
    | Some xfer ->
      let total = String.length xfer.sx_data in
      let len = min Snapshot.chunk_bytes (total - xfer.sx_offset) in
      let data = String.sub xfer.sx_data xfer.sx_offset len in
      let is_last = xfer.sx_offset + len >= total in
      Hashtbl.replace ls.snap_inflight f (Engine.now t.engine);
      send t node ~dst:f
        (Raft_msg.Install_snapshot
           {
             term = node.term;
             last_index = xfer.sx_last_index;
             last_term = xfer.sx_last_term;
             members = xfer.sx_members;
             offset = xfer.sx_offset;
             data;
             is_last;
           })

  and advance_commit t node =
    match node.role with
    | Leader ls ->
      let last = Raft_log.last_index node.log in
      let changed = ref false in
      let n = ref (node.commit + 1) in
      let continue = ref true in
      while !continue && !n <= last do
        let count =
          List.fold_left
            (fun acc m ->
              if Node_id.equal m node.me then acc + 1
              else
                match Hashtbl.find_opt ls.matched m with
                | Some mi when mi >= !n -> acc + 1
                | _ -> acc)
            0 node.config
        in
        if count >= quorum node.config && Raft_log.term_at node.log !n = Some node.term
        then begin
          node.commit <- !n;
          changed := true;
          incr n
        end
        else if count >= quorum node.config then incr n (* older-term entry: only commit via later entry *)
        else continue := false
      done;
      if !changed then apply_loop t node
    | Follower | Candidate _ -> ()

  and apply_loop t node =
    let stuck = ref false in
    while (not !stuck) && node.applied < node.commit && not node.halted do
      match Raft_log.get node.log (node.applied + 1) with
      | None ->
        (* A gap below the commit index cannot happen (commit never moves
           past the log tail, compaction only discards applied entries);
           stop applying rather than crash if it ever does. *)
        stuck := true
      | Some { Raft_log.payload; _ } ->
        node.applied <- node.applied + 1;
        apply_payload t node node.applied payload
    done;
    maybe_compact t node

  and apply_payload t node index payload =
    match payload with
    | Raft_log.Noop -> (
      (* A leader's own no-op committed: a pending step may go now. *)
      match node.role with
      | Leader _ -> try_next_step t node
      | Follower | Candidate _ -> ())
    | Raft_log.App { client; seq; low_water; cmd } -> (
      match Session.check node.sessions ~client ~seq with
      | `New ->
        let app', resp = Sm.apply node.app (Sm.decode_command cmd) in
        let rsp = Sm.encode_response resp in
        node.app <- app';
        Session.record node.sessions ~client ~seq ~rsp;
        Session.trim node.sessions ~client ~below:low_water;
        incr (Obs.scope_counter t.svc "applied");
        incr node.n_applied;
        (match node.role with
         | Leader _ ->
           Front.command_lifecycle t.front ~node:node.me "applied" ~client ~seq
             ~epoch:node.config_index ~idx:index;
           reply_client t node ~client ~seq ~rsp
         | Follower | Candidate _ -> ())
      | `Dup rsp -> (
        match node.role with
        | Leader _ -> reply_client t node ~client ~seq ~rsp
        | Follower | Candidate _ -> ())
      | `Stale -> ())
    | Raft_log.Config members ->
      node.config_index <- index;
      (match node.role with
       | Leader ls ->
         dir_update t node;
         (* Push this (now committed) entry to servers the change removed:
            they are out of [peers] and would otherwise never learn of
            their removal and keep campaigning. *)
         Stable.iter_sorted ~compare:Node_id.compare
           (fun f _ ->
             if not (List.exists (Node_id.equal f) node.config) then
               send_append_to t node f)
           ls.next;
         (match node.pending_target with
          | Some (target, admin, seq) when sorted members = sorted target ->
            node.pending_target <- None;
            reply_client t node ~client:admin ~seq ~rsp:"ok"
          | Some _ -> try_next_step t node
          | None -> ())
       | Follower | Candidate _ -> ());
      (* A server retires when the committed configuration excludes it AND
         no later (possibly uncommitted) configuration re-adds it.  The
         effective-config check also keeps a replaying newcomer from
         halting on historical entries that predate its own addition. *)
      if
        (not (List.exists (Node_id.equal node.me) members))
        && not (is_member node)
      then halt_node t node

  and maybe_compact t node =
    if node.applied - Raft_log.base_index node.log > t.snapshot_threshold then begin
      (* Configuration as of the compaction point. *)
      let rec config_at i =
        if i <= Raft_log.base_index node.log then node.snap_members
        else
          match Raft_log.get node.log i with
          | Some { Raft_log.payload = Raft_log.Config members; _ } -> members
          | Some _ -> config_at (i - 1)
          | None -> node.snap_members
      in
      node.snap_members <- config_at node.applied;
      node.snapshot_data <-
        Snapshot.encode
          { Snapshot.app = Sm.snapshot node.app;
            sessions = Session.encode node.sessions };
      Raft_log.compact_to node.log node.applied;
      incr (Obs.scope_counter t.svc "compactions")
    end

  and halt_node t node =
    if not node.halted then begin
      let was_leader =
        match node.role with Leader _ -> true | Follower | Candidate _ -> false
      in
      node.halted <- true;
      node.election_timer <- Engine.cancel_opt t.engine node.election_timer;
      node.hb_timer <- Engine.cancel_opt t.engine node.hb_timer;
      node.batch_timer <- Engine.cancel_opt t.engine node.batch_timer;
      node.batch_n <- 0;
      node.role <- Follower;
      (* A leader removed by a committed step stops applying at the
         configuration entry.  The client entries it appended after that
         entry may never have left its log (a pending batch), and it will
         not reply to the ones that did: send their clients on now rather
         than leave them to their request timeout.  A retry that meets the
         entry committed after all is answered from the session table. *)
      if was_leader then
        for i = node.applied + 1 to Raft_log.last_index node.log do
          match Raft_log.get node.log i with
          | Some { Raft_log.payload = Raft_log.App { client; seq; _ }; _ } ->
            redirect t node ~src:client seq
          | Some { Raft_log.payload = Raft_log.Noop | Raft_log.Config _; _ }
          | None ->
            ()
        done
    end

  (* --- single-server membership orchestration --- *)

  and has_uncommitted_config node =
    let rec scan i =
      if i <= node.commit then false
      else
        match Raft_log.get node.log i with
        | Some { Raft_log.payload = Raft_log.Config _; _ } -> true
        | Some _ | None -> scan (i - 1)
    in
    scan (Raft_log.last_index node.log)

  (* A leader takes the next single-server step only once it has
     committed an entry of its own term (its election no-op), as well as
     every configuration it holds.  Without the first rule, a leader
     elected under the old configuration can commit a step under the
     step's smaller quorum while a deposed leader holding an uncommitted
     step of its own term can still win under that one: two committed
     values at one index (Ongaro, 2015; test_raft pins the
     interleaving). *)
  and try_next_step t node =
    match (node.role, node.pending_target) with
    | Leader _, Some (target, admin, seq) ->
      if sorted node.config = sorted target then begin
        node.pending_target <- None;
        reply_client t node ~client:admin ~seq ~rsp:"ok"
      end
      else if
        Raft_log.term_at node.log node.commit = Some node.term
        && not (has_uncommitted_config node)
      then begin
        let cur = sorted node.config and tgt = sorted target in
        let adds = List.filter (fun m -> not (List.mem m cur)) tgt in
        (* Remove the leader itself last, so the change sequence costs at
           most one leader handoff. *)
        let removes =
          let r = List.filter (fun m -> not (List.mem m tgt)) cur in
          List.filter (fun m -> not (Node_id.equal m node.me)) r
          @ List.filter (fun m -> Node_id.equal m node.me) r
        in
        let next_members =
          match (adds, removes) with
          | a :: _, _ -> sorted (a :: cur)
          | [], r :: _ -> List.filter (fun m -> not (Node_id.equal m r)) cur
          | [], [] -> cur
        in
        if next_members <> cur then begin
          incr (Obs.scope_counter t.svc "config_steps");
          ignore
            (Raft_log.append node.log
               { Raft_log.term = node.term; payload = Raft_log.Config next_members });
          refresh_config node;
          broadcast_appends t node;
          advance_commit t node
        end
      end
    | _ -> ()

  (* --- RPC handlers --- *)

  let log_up_to_date node ~last_index ~last_term =
    last_term > Raft_log.last_term node.log
    || (last_term = Raft_log.last_term node.log
        && last_index >= Raft_log.last_index node.log)

  let on_request_vote t node ~src ~term ~last_index ~last_term =
    (* Disruption guard: ignore candidates outside our configuration. *)
    if node.config = [] || List.exists (Node_id.equal src) node.config then begin
      (* Raft §5.2: only a granted vote resets the election timer.  A
         refused candidate's higher term must not keep re-arming it, or
         the one up-to-date follower never times out to lead. *)
      if term > node.term then step_down ~keep_armed:true t node ~term;
      let granted =
        term = node.term
        && (match node.voted_for with None -> true | Some v -> Node_id.equal v src)
        && log_up_to_date node ~last_index ~last_term
      in
      if granted then begin
        node.voted_for <- Some src;
        reset_election_timer t node
      end;
      send t node ~dst:src (Raft_msg.Vote { term = node.term; granted })
    end

  let on_vote t node ~src ~term ~granted =
    if term > node.term then step_down t node ~term
    else
      match node.role with
      | Candidate votes when term = node.term && granted ->
        node.role <- Candidate (Node_id.Set.add src votes);
        maybe_win t node
      | _ -> ()

  let on_append t node ~src ~term ~prev_index ~prev_term ~entries ~commit =
    if term < node.term then
      send t node ~dst:src
        (Raft_msg.Append_reply { term = node.term; success = false; match_index = 0 })
    else begin
      if term > node.term then step_down t node ~term
      else begin
        (match node.role with
         | Candidate _ -> node.role <- Follower
         | Leader _ when not (Node_id.equal src node.me) ->
           (* Two leaders in one term is impossible; defensive. *)
           node.role <- Follower
         | _ -> ());
        reset_election_timer t node
      end;
      node.leader_hint <- Some src;
      match Raft_log.term_at node.log prev_index with
      | Some pt when pt = prev_term ->
        List.iter
          (fun (i, (e : Raft_log.entry)) ->
            match Raft_log.term_at node.log i with
            | Some existing when existing = e.Raft_log.term -> ()
            | Some _ ->
              Raft_log.truncate_from node.log i;
              ignore (Raft_log.append node.log e)
            | None ->
              if i = Raft_log.last_index node.log + 1 then
                ignore (Raft_log.append node.log e))
          entries;
        refresh_config node;
        let match_index =
          min (prev_index + List.length entries) (Raft_log.last_index node.log)
        in
        let new_commit = min commit (Raft_log.last_index node.log) in
        if new_commit > node.commit then begin
          node.commit <- new_commit;
          apply_loop t node
        end;
        if not node.halted then
          send t node ~dst:src
            (Raft_msg.Append_reply { term = node.term; success = true; match_index })
      | Some _ | None ->
        send t node ~dst:src
          (Raft_msg.Append_reply
             { term = node.term; success = false; match_index = node.commit })
    end

  let on_append_reply t node ~src ~term ~success ~match_index =
    if term > node.term then step_down t node ~term
    else
      match node.role with
      | Leader ls when term = node.term ->
        if success then begin
          let old = Option.value (Hashtbl.find_opt ls.matched src) ~default:0 in
          if match_index > old then Hashtbl.replace ls.matched src match_index;
          (* Never rewind the optimistic send cursor on an ack: entries
             between match and next are in flight, not lost. *)
          let cur =
            Option.value (Hashtbl.find_opt ls.next src) ~default:1
          in
          Hashtbl.replace ls.next src (max cur (match_index + 1));
          advance_commit t node;
          (* Keep a lagging follower streaming instead of one batch per
             heartbeat — but only when there is genuinely unsent log (the
             optimistic [next] is the send cursor; using [match] here would
             ping-pong empty appends at RTT speed). *)
          let next_cursor =
            Option.value (Hashtbl.find_opt ls.next src)
              ~default:(Raft_log.last_index node.log + 1)
          in
          if next_cursor <= Raft_log.last_index node.log then
            send_append_to t node src
        end
        else begin
          let old_next =
            Option.value (Hashtbl.find_opt ls.next src)
              ~default:(Raft_log.last_index node.log + 1)
          in
          let new_next = max 1 (match_index + 1) in
          if new_next < old_next then begin
            Hashtbl.replace ls.next src new_next;
            send_append_to t node src
          end
        end
      | _ -> ()

  let on_install_snapshot t node ~src ~term ~last_index ~last_term ~members
      ~offset ~data ~is_last =
    if term >= node.term then begin
      if term > node.term then step_down t node ~term;
      node.leader_hint <- Some src;
      reset_election_timer t node;
      let have = Buffer.length node.snap_in in
      if offset = 0 && have > 0 then Buffer.clear node.snap_in;
      let have = Buffer.length node.snap_in in
      if offset = have then Buffer.add_string node.snap_in data
      else if offset > have then
        (* A chunk was lost: re-ack what we have so the sender rewinds. *)
        ();
      if is_last && Buffer.length node.snap_in = offset + String.length data
      then begin
        let blob = Buffer.contents node.snap_in in
        Buffer.clear node.snap_in;
        if last_index > node.applied then begin
          let snapshot = Snapshot.decode blob in
          node.app <- Sm.restore snapshot.Snapshot.app;
          node.sessions <- Session.decode snapshot.Snapshot.sessions;
          Raft_log.reset_to node.log ~base_index:last_index
            ~base_term:last_term;
          node.snapshot_data <- blob;
          node.snap_members <- members;
          node.config <- members;
          node.config_index <- last_index;
          node.commit <- last_index;
          node.applied <- last_index;
          incr (Obs.scope_counter t.svc "snapshots_installed")
        end;
        send t node ~dst:src
          (Raft_msg.Snapshot_reply
             { term = node.term; last_index = node.applied })
      end
      else
        send t node ~dst:src
          (Raft_msg.Snapshot_chunk_ok
             { term = node.term; offset = Buffer.length node.snap_in })
    end

  let on_snapshot_chunk_ok t node ~src ~term ~offset =
    if term > node.term then step_down t node ~term
    else
      match node.role with
      | Leader ls when term = node.term -> (
        Hashtbl.remove ls.snap_inflight src;
        match Hashtbl.find_opt ls.snap_sending src with
        | Some xfer ->
          (* The ack carries the follower's buffer length: authoritative
             next offset (rewinds after a lost chunk). *)
          xfer.sx_offset <- min offset (String.length xfer.sx_data);
          send_snapshot_chunk t node ls src
        | None -> ())
      | _ -> ()

  let on_snapshot_reply t node ~src ~term ~last_index =
    if term > node.term then step_down t node ~term
    else
      match node.role with
      | Leader ls when term = node.term ->
        Hashtbl.remove ls.snap_inflight src;
        Hashtbl.remove ls.snap_sending src;
        let old = Option.value (Hashtbl.find_opt ls.matched src) ~default:0 in
        if last_index > old then Hashtbl.replace ls.matched src last_index;
        Hashtbl.replace ls.next src (last_index + 1);
        advance_commit t node;
        if last_index + 1 <= Raft_log.last_index node.log then
          send_append_to t node src (* stream the suffix the snapshot missed *)
      | _ -> ()

  (* --- client handling --- *)

  let is_serving node =
    match node.role with
    | Leader _ -> not node.halted
    | Follower | Candidate _ -> false

  (* A client request window (a plain [Request] is a window of one): each
     command is deduplicated against the session table and every fresh
     one is appended before [flush] replicates them together.  A lone
     request waits out the batching timer ([schedule_appends]); a
     coalesced window is already complete and broadcasts at once
     ([flush_appends], taking any buffered singles along). *)
  let handle_requests t node ~src ~low_water ~reqs ~flush =
    if is_serving node then begin
      let appended = ref false in
      List.iter
        (fun (seq, payload) ->
          incr (Obs.scope_counter t.svc "requests");
          match (payload : Client_msg.payload) with
          | Client_msg.Cmd cmd -> (
            match Session.check node.sessions ~client:src ~seq with
            | `Dup rsp -> reply_client t node ~client:src ~seq ~rsp
            | `Stale -> ()
            | `New ->
              ignore
                (Raft_log.append node.log
                   {
                     Raft_log.term = node.term;
                     payload = Raft_log.App { client = src; seq; low_water; cmd };
                   });
              appended := true)
          | Client_msg.Change_membership target ->
            (* An earlier step of this window may have removed the leader. *)
            if not (is_serving node) then
              redirect t node ~src seq
            else begin
              (match node.pending_target with
               | Some (cur_target, _, _) when sorted cur_target = sorted target
                 -> ()
               | _ ->
                 if sorted node.config = sorted target then
                   reply_client t node ~client:src ~seq ~rsp:"ok"
                 else node.pending_target <- Some (target, src, seq));
              try_next_step t node
            end)
        reqs;
      if !appended then flush t node
    end
    else
      List.iter
        (fun (seq, _) ->
          incr (Obs.scope_counter t.svc "requests");
          redirect t node ~src seq)
        reqs

  let rec node_handler t node (env : Raft_wire.t Network.envelope) =
    let src = env.Network.src in
    if node.halted then begin
      (* A retired server keeps answering clients with its freshest view of
         the configuration — exactly what a decommissioned-but-reachable
         server does in practice. *)
      match env.Network.payload with
      | Raft_wire.Rpc
          ( Raft_msg.Append { term; _ }
          | Raft_msg.Install_snapshot { term; _ } )
        when term >= node.term ->
        (* Replication traffic from a current-term leader means a later
           configuration re-added this server: a removed node only halts,
           and the new leader only streams to its own members.  Rejoin as
           a follower and let the normal path bring the log and state
           machine back up to date. *)
        node.halted <- false;
        node.role <- Follower;
        reset_election_timer t node;
        node_handler t node env
      | Raft_wire.Client (Client_msg.Request { seq; _ }) ->
        redirect t node ~src seq
      | Raft_wire.Client (Client_msg.Request_batch { reqs; _ }) ->
        List.iter (fun (seq, _) -> redirect t node ~src seq) reqs
      | _ -> ()
    end
    else
      match env.Network.payload with
      | Raft_wire.Rpc (Raft_msg.Request_vote { term; last_index; last_term }) ->
        on_request_vote t node ~src ~term ~last_index ~last_term
      | Raft_wire.Rpc (Raft_msg.Vote { term; granted }) ->
        on_vote t node ~src ~term ~granted
      | Raft_wire.Rpc (Raft_msg.Append { term; prev_index; prev_term; entries; commit })
        ->
        on_append t node ~src ~term ~prev_index ~prev_term ~entries ~commit
      | Raft_wire.Rpc (Raft_msg.Append_reply { term; success; match_index }) ->
        on_append_reply t node ~src ~term ~success ~match_index
      | Raft_wire.Rpc
          (Raft_msg.Install_snapshot
             { term; last_index; last_term; members; offset; data; is_last })
        ->
        on_install_snapshot t node ~src ~term ~last_index ~last_term ~members
          ~offset ~data ~is_last
      | Raft_wire.Rpc (Raft_msg.Snapshot_chunk_ok { term; offset }) ->
        on_snapshot_chunk_ok t node ~src ~term ~offset
      | Raft_wire.Rpc (Raft_msg.Snapshot_reply { term; last_index }) ->
        on_snapshot_reply t node ~src ~term ~last_index
      | Raft_wire.Client (Client_msg.Request { seq; low_water; payload }) ->
        handle_requests t node ~src ~low_water ~reqs:[ (seq, payload) ]
          ~flush:schedule_appends
      | Raft_wire.Client (Client_msg.Request_batch { low_water; reqs }) ->
        handle_requests t node ~src ~low_water ~reqs ~flush:flush_appends
      | Raft_wire.Client (Client_msg.Reply _ | Client_msg.Redirect _) -> ()
      | Raft_wire.Dir_update _ | Raft_wire.Dir_lookup | Raft_wire.Dir_info _ ->
        ()
  [@@rsmr.deterministic] [@@rsmr.total]

  let create ~engine ?latency ?drop ?bandwidth ?params
      ?(snapshot_threshold = 512) ?universe ?obs ~members () =
    if members = [] then invalid_arg "Raft.create: empty member set";
    let obs = match obs with Some o -> o | None -> Obs.create () in
    if List.assoc_opt "proto" (Obs.meta obs) = None then
      Obs.set_meta obs "proto" "raft";
    Obs.set_meta obs "strategy" "raft";
    let params = Option.value params ~default:Params.default in
    let universe = Option.value universe ~default:members in
    let universe = List.sort_uniq Node_id.compare (universe @ members) in
    let net =
      Network.create engine ?latency ?drop ?bandwidth ~tagger:Raft_wire.tag
        ~sizer:Raft_wire.size ~obs ()
    in
    let t =
      {
        engine;
        net;
        params;
        snapshot_threshold;
        nodes = Hashtbl.create 16;
        front =
          Front.create ~engine ~net ~bus:(Obs.bus obs) ~wire:front_wire
            ~universe ~batch_window:params.Params.batch_delay
            ~batch_max:params.Params.batch_max;
        svc = Obs.scope ~labels:[ ("section", "svc") ] obs;
        obs;
      }
    in
    let initial_snapshot =
      Snapshot.encode
        { Snapshot.app = Sm.snapshot (Sm.init ());
          sessions = Session.encode (Session.create ()) }
    in
    List.iter
      (fun id ->
        let initial_member = List.exists (Node_id.equal id) members in
        let node =
          {
            me = id;
            term = 0;
            voted_for = None;
            log = Raft_log.create ();
            commit = 0;
            applied = 0;
            config = (if initial_member then members else []);
            config_index = 0;
            snap_members = (if initial_member then members else []);
            snapshot_data = initial_snapshot;
            role = Follower;
            leader_hint = None;
            app = Sm.init ();
            sessions = Session.create ();
            pending_target = None;
            snap_in = Buffer.create 64;
            election_timer = None;
            hb_timer = None;
            batch_timer = None;
            batch_n = 0;
            halted = false;
            rng = Rng.split (Engine.rng engine);
            n_applied =
              Obs.scope_counter (Obs.scope ~node:id t.obs) "applied";
          }
        in
        Hashtbl.replace t.nodes id node;
        Network.register t.net id (fun env -> node_handler t node env);
        reset_election_timer t node)
      universe;
    Front.start t.front ~members;
    t

  let cluster t = Front.cluster t.front ~obs:t.obs
end
