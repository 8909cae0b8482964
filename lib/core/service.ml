module Engine = Rsmr_sim.Engine
module Fnv = Rsmr_sim.Fnv
module Trace = Rsmr_sim.Trace
module Obs = Rsmr_obs.Registry
module Stable = Rsmr_sim.Stable
module Network = Rsmr_net.Network
module Node_id = Rsmr_net.Node_id
module Config = Rsmr_smr.Config
module Client_msg = Rsmr_client.Client_msg
module Strategy = Rsmr_iface.Reconfig_strategy

type epoch_stat = {
  es_epoch : int;
  es_activated : bool;
  es_retired : bool;
  es_wedged_at : int option;
  es_applied_hi : int;
  es_digest : int64;
}

(* [entry s] is the (key, value) a record reports, if any.  The first
   node to report a key fixes its value; a later node with a different
   value is the violation. *)
let disagreement stats ~entry ~equal ~report =
  let seen = Hashtbl.create 8 in
  List.find_map
    (fun (n, es) ->
      List.find_map
        (fun s ->
          match entry s with
          | None -> None
          | Some (k, v) -> (
            match Hashtbl.find_opt seen k with
            | None ->
              Hashtbl.add seen k (n, v);
              None
            | Some (n0, v0) ->
              if equal v0 v then None else Some (report s n0 v0 n v)))
        es)
    stats

let epoch_audit stats =
  let past_wedge =
    List.find_map
      (fun (n, es) ->
        List.find_map
          (fun s ->
            match s.es_wedged_at with
            | Some w when s.es_applied_hi > w ->
              Some
                (Printf.sprintf
                   "epoch-prefix: node %d epoch %d applied index %d past \
                    wedge %d"
                   n s.es_epoch s.es_applied_hi w)
            | _ -> None)
          es)
      stats
  in
  match past_wedge with
  | Some _ -> past_wedge
  | None -> (
    let wedges =
      disagreement stats
        ~entry:(fun s -> Option.map (fun w -> (s.es_epoch, w)) s.es_wedged_at)
        ~equal:Int.equal
        ~report:(fun s n0 w0 n w ->
          Printf.sprintf
            "wedge-agreement: epoch %d wedged at %d on node %d but at %d on \
             node %d"
            s.es_epoch w0 n0 w n)
    in
    match wedges with
    | Some _ -> wedges
    | None ->
      disagreement stats
        ~entry:(fun s ->
          if s.es_applied_hi < 0 then None
          else Some ((s.es_epoch, s.es_applied_hi), s.es_digest))
        ~equal:Int64.equal
        ~report:(fun s _ d0 n d ->
          Printf.sprintf
            "committed-prefix: node %d epoch %d disagrees on the prefix up \
             to index %d (digest %s, witnessed %s)"
            n s.es_epoch s.es_applied_hi (Fnv.to_hex d) (Fnv.to_hex d0)))

(* How [Wire.t] carries the client and directory messages ({!Front}). *)
let recv_edge (h : Front.handler) (env : Wire.t Network.envelope) =
  match env.Network.payload with
  | Wire.Client msg -> h.Front.on_client ~src:env.Network.src msg
  | Wire.Dir_update { epoch; members; leader } ->
    h.Front.on_update ~epoch ~members ~leader
  | Wire.Dir_lookup -> h.Front.on_lookup ~src:env.Network.src
  | Wire.Dir_info { epoch; members; leader } ->
    h.Front.on_info ~epoch ~members ~leader
  | Wire.Block _ | Wire.Bootstrap _ | Wire.Fetch_state _ | Wire.State_chunk _
  | Wire.Retire _ ->
    ()
[@@rsmr.deterministic] [@@rsmr.total]

let front_wire =
  {
    Front.to_client = (fun msg -> Wire.Client msg);
    lookup = Wire.Dir_lookup;
    info =
      (fun ~epoch ~members ~leader -> Wire.Dir_info { epoch; members; leader });
    recv = recv_edge;
  }

module type S = sig
  type t
  type app_state

  val create :
    engine:Rsmr_sim.Engine.t ->
    ?latency:Rsmr_net.Latency.t ->
    ?drop:float ->
    ?bandwidth:float ->
    ?smr_params:Rsmr_smr.Params.t ->
    ?options:Options.t ->
    ?universe:Rsmr_net.Node_id.t list ->
    ?obs:Rsmr_obs.Registry.t ->
    ?net_mode:Rsmr_net.Network.mode ->
    members:Rsmr_net.Node_id.t list ->
    unit ->
    t

  val cluster : t -> Rsmr_iface.Cluster.t

  val set_on_dir_update :
    t ->
    (epoch:int ->
     members:Rsmr_net.Node_id.t list ->
     leader:Rsmr_net.Node_id.t option ->
     unit) ->
    unit

  val canonical_state : t -> string
  val engine : t -> Rsmr_sim.Engine.t
  val net : t -> Wire.t Rsmr_net.Network.t
  val directory_id : t -> Rsmr_net.Node_id.t
  val current_epoch : t -> int
  val current_members : t -> Rsmr_net.Node_id.t list
  val counters : t -> Rsmr_sim.Counters.t
  val obs : t -> Rsmr_obs.Registry.t
  val app_state : t -> Rsmr_net.Node_id.t -> app_state option
  val host_epoch : t -> Rsmr_net.Node_id.t -> int option
  val live_instances : t -> Rsmr_net.Node_id.t -> int
  val current_leader : t -> Rsmr_net.Node_id.t option
  val epoch_stats : t -> Rsmr_net.Node_id.t -> epoch_stat list
end

module Make_on (B : Rsmr_smr.Block_intf.S) (Sm : Rsmr_app.State_machine.S) =
struct
  module Replica = B

  (* The composition layer is a driver over
     [t.opts.Options.strategy] ({!Rsmr_iface.Reconfig_strategy}): the
     stage sequence wedge → bootstrap → state transfer → directory
     publish → handoff → residual re-submission is fixed, and the
     strategy value picks a policy per stage.  {!Epoch} owns every
     epoch transition; [Make_on] applies decided commands and carries
     out {!Epoch}'s effects.  The client-facing edge (directory node,
     client endpoints, admin session) is {!Front}. *)

  type app_state = Sm.t

  (* What applying a decided command mutates, per epoch the host ran. *)
  type handle = {
    epoch : int;
    cfg : Config.t;
    mutable replica : Replica.t option;
    mutable app : Sm.t;
    mutable sessions : Session.t;
    mutable applied_hi : int;
        (* highest log index whose command took effect in this instance
           (applied, deduplicated, or wedged) — the epoch-prefix-safety
           oracle asserts it never passes the wedge index *)
    mutable applied_digest : int64;
        (* FNV-1a chain over every (idx, envelope-bytes) this instance
           processed, in order.  Two nodes with equal [applied_hi] in the
           same epoch must have equal digests — the model checker's
           committed-prefix-agreement witness. *)
    sc : Obs.scope;  (* {node; epoch}-scoped registry view *)
    (* hot-path cells of that scope, resolved once per instance *)
    sc_applied : int ref;
    sc_residuals : int ref;
  }

  type host = {
    me : Node_id.t;
    mutable epochs : Epoch.t;
    handles : (int, handle) Hashtbl.t;
        (* every epoch hosted; a retired one keeps its audit numbers *)
    timers : (Epoch.timer * int, Engine.timer) Hashtbl.t;
  }

  type t = {
    engine : Engine.t;
    net : Wire.t Network.t;
    opts : Options.t;
    smr_params : Rsmr_smr.Params.t;
    hosts : (Node_id.t, host) Hashtbl.t;
    front : Wire.t Front.t;
    mutable on_dir_update :
      epoch:int -> members:Node_id.t list -> leader:Node_id.t option -> unit;
    svc : Obs.scope;  (* the run-level {section=svc} counts *)
    (* cells of [svc] bumped once per command, resolved on first use so a
       counter that never fires stays out of the export *)
    applied : int ref Lazy.t;
    replies : int ref Lazy.t;
    requests : int ref Lazy.t;
    obs : Obs.t;
    bus : Trace.t;  (* = Obs.bus obs, cached *)
    wedge_times : (int, float) Hashtbl.t;
        (* new epoch -> virtual time of the first wedge that opened it;
           consumed by the first announce to measure the wedged window *)
    wedged_window : Rsmr_sim.Histogram.t;
  }

  let engine t = t.engine
  let net t = t.net
  let set_on_dir_update t f = t.on_dir_update <- f
  let directory_id t = Front.dir_id t.front
  let counters t = Obs.counters t.obs "svc"
  let obs t = t.obs

  let current_epoch t = Directory.epoch (Front.directory t.front)
  let current_members t = Directory.members (Front.directory t.front)

  let is_leader h = match h.replica with Some r -> Replica.is_leader r | None -> false

  let leads host epoch =
    match Hashtbl.find_opt host.handles epoch with
    | Some h -> is_leader h
    | None -> false

  (* The newest live epoch that [pred] holds of, or -1: the map is in
     epoch order. *)
  let newest host pred =
    Epoch.fold
      (fun e (i : Epoch.inst) acc -> if pred e i && not i.retired then e else acc)
      host.epochs (-1)

  let app_state t node =
    Option.bind (Hashtbl.find_opt t.hosts node) (fun host ->
        Hashtbl.find_opt host.handles (newest host (fun _ i -> i.activated)))
    |> Option.map (fun h -> h.app)

  let host_epoch t node =
    Option.bind (Hashtbl.find_opt t.hosts node) (fun host ->
        match newest host (fun _ _ -> true) with -1 -> None | e -> Some e)

  let live_instances t node =
    match Hashtbl.find_opt t.hosts node with
    | None -> 0
    | Some host ->
      Epoch.fold (fun _ i n -> if i.started && not i.retired then n + 1 else n)
        host.epochs 0

  let epoch_stats t node =
    match Hashtbl.find_opt t.hosts node with
    | None -> []
    | Some host ->
      Epoch.fold
        (fun e (i : Epoch.inst) acc ->
          match Hashtbl.find_opt host.handles e with
          | Some h ->
            { es_epoch = e; es_activated = i.activated; es_retired = i.retired;
              es_wedged_at = i.wedged_at; es_applied_hi = h.applied_hi;
              es_digest = h.applied_digest }
            :: acc
          | None -> acc)
        host.epochs []
      |> List.rev

  let current_leader t =
    Stable.fold_sorted ~compare:Node_id.compare
      (fun id host acc ->
        (* leading AND able to execute/reply *)
        let e = newest host (fun e i -> i.activated && leads host e) in
        match acc with
        | _ when e < 0 || Network.is_crashed t.net id -> acc
        | Some (best, _) when best >= e -> acc
        | Some _ | None -> Some (e, id))
      t.hosts None
    |> Option.map snd

  let send t ~src ~dst wire = Network.send t.net ~src ~dst wire

  let reply_client t host ~client ~seq ~rsp =
    incr (Lazy.force t.replies);
    send t ~src:host.me ~dst:client (Wire.Client (Client_msg.Reply { seq; rsp }))

  (* Submit envelopes in wire form: the whole list reaches the block as
     one proposal batch (one broadcast when the block leads), in list
     order. *)
  let submit_raw_many h values =
    match (h.replica, values) with
    | None, _ | Some _, [] -> ()
    | Some r, [ value ] -> Replica.submit r value
    | Some r, _ -> Replica.submit_many r values

  (* A block payload off the wire may be forged: what does not decode is
     dropped. *)
  let deliver r ~src data =
    match B.Msg.decode data with
    | msg -> Replica.handle r ~src msg
    | exception Rsmr_app.Codec.Truncated -> ()

  let env_client_seq (env : _ Envelope.t) =
    match env with
    | Envelope.App { client; seq; _ } | Envelope.Reconfig { client; seq; _ } ->
      (client, seq)
    | Envelope.Drain -> (-1, -1) (* never traced: dispatch diverts it *)

  let trace_reconfig ?(after = []) t host what attrs =
    if Trace.active t.bus then
      Trace.emit t.bus ~time:(Engine.now t.engine) ~node:host.me ~topic:`Reconfig
        ~attrs:
          (attrs @ (("strategy", t.opts.Options.strategy.Strategy.name) :: after))
        what

  (* The new value goes in before any effect runs: [Start], [Replay] and
     [Install] re-enter. *)
  let advance host input =
    let epochs, effects = Epoch.step host.epochs input in
    host.epochs <- epochs;
    effects

  let rec step t host input = List.iter (perform t host) (advance host input)

  and fire t host timer epoch =
    step t host (Epoch.Fired { timer; epoch; leader = leads host epoch })

  and perform t host effect_ =
    let on epoch f = Option.iter f (Hashtbl.find_opt host.handles epoch) in
    match effect_ with
    | Epoch.Send { dst; msg } ->
      (match msg with
       | Wire.Fetch_state { epoch } ->
         trace_reconfig t host "fetch"
           [ ("epoch", string_of_int epoch); ("donor", string_of_int dst) ]
       | _ -> ());
      send t ~src:host.me ~dst msg
    | Epoch.Send_snapshot { dst; epoch; snapshot } ->
      let pieces = Snapshot.chunk snapshot ~size:Snapshot.chunk_bytes in
      let total = List.length pieces in
      List.iteri
        (fun index data ->
          incr (Obs.scope_counter t.svc "chunks_sent");
          let bytes = Obs.scope_counter t.svc "transfer_bytes" in
          bytes := !bytes + String.length data;
          send t ~src:host.me ~dst (Wire.State_chunk { epoch; index; total; data }))
        pieces
    | Epoch.Forward { dst; epoch; values } ->
      let msg =
        match values with
        | [ value ] -> B.submit_msg value
        | _ -> B.submit_many_msg values
      in
      send t ~src:host.me ~dst (Wire.Block { epoch; data = B.Msg.encode msg })
    | Epoch.Submit { epoch; values } -> on epoch (fun h -> submit_raw_many h values)
    | Epoch.Arm { timer; epoch; delay } ->
      let key = (timer, epoch) in
      Option.iter (Engine.cancel t.engine) (Hashtbl.find_opt host.timers key);
      Hashtbl.replace host.timers key
        (Engine.schedule t.engine ~delay (fun () ->
             Hashtbl.remove host.timers key;
             fire t host timer epoch))
    | Epoch.Cancel { timer; epoch } ->
      Option.iter (Engine.cancel t.engine) (Hashtbl.find_opt host.timers (timer, epoch));
      Hashtbl.remove host.timers (timer, epoch)
    | Epoch.Create { epoch; members } ->
      let sc = Obs.scope ~node:host.me ~epoch t.obs in
      Hashtbl.replace host.handles epoch
        { epoch; cfg = Config.make ~instance_id:epoch ~members; replica = None;
          app = Sm.init (); sessions = Session.create (); applied_hi = -1;
          applied_digest = Fnv.empty; sc;
          sc_applied = Obs.scope_counter sc "applied";
          sc_residuals = Obs.scope_counter sc "residuals" }
    | Epoch.Start { epoch; early } -> on epoch (fun h -> start_replica t host h early)
    | Epoch.Halt epoch ->
      (* A retired epoch keeps its audit numbers, not its state. *)
      on epoch (fun h ->
          Option.iter Replica.halt h.replica;
          h.replica <- None;
          h.app <- Sm.init ();
          h.sessions <- Session.create ())
    | Epoch.Wedged { epoch; idx; snapshot } ->
      incr (Obs.scope_counter t.svc "wedges");
      on epoch (fun h -> incr (Obs.scope_counter h.sc "wedged"));
      if not (Hashtbl.mem t.wedge_times (epoch + 1)) then
        Hashtbl.add t.wedge_times (epoch + 1) (Engine.now t.engine);
      (* The digest of what this host will donate: every member that
         wedges an epoch at one index must donate the same bytes, since a
         joiner may assemble one snapshot from two donors. *)
      if Trace.active t.bus then
        trace_reconfig t host "wedged"
          [ ("epoch", string_of_int epoch); ("widx", string_of_int idx) ]
          ~after:[ ("snapshot", Fnv.to_hex (Fnv.hash (Snapshot.encode snapshot))) ]
    | Epoch.Resubmitted -> () (* counted by [handle_residual] *)
    | Epoch.Install { epoch; chunks } ->
      on epoch (fun h ->
          (* Chunks off the wire may be forged: what does not decode is
             dropped here, and the joiner fetches again. *)
          match
            let snapshot = Snapshot.of_chunks chunks in
            (Sm.restore snapshot.Snapshot.app, Session.decode snapshot.Snapshot.sessions)
          with
          | app, sessions ->
            h.app <- app;
            h.sessions <- sessions;
            step t host (Epoch.Installed epoch)
          | exception Rsmr_app.Codec.Truncated -> step t host (Epoch.Rejected epoch))
    | Epoch.Activated { epoch; local } ->
      (* The next instance gets a copy of the session table: under
         [No_first_wedge] the old one keeps applying past the wedge, and
         those records must not leak into the next epoch. *)
      if local then
        on epoch (fun h ->
            on (epoch - 1) (fun prev ->
                h.app <- prev.app;
                h.sessions <- Session.copy prev.sessions));
      incr
        (Obs.scope_counter t.svc
           (if local then "local_activations" else "transfers"));
      trace_reconfig t host "activated"
        [ ("epoch", string_of_int epoch); ("local", if local then "1" else "0") ]
    | Epoch.Replay { epoch; decided } ->
      on epoch (fun h -> List.iter (fun (idx, value) -> dispatch t host h idx value) decided)
    | Epoch.Poll epoch -> fire t host Epoch.Announce epoch
    | Epoch.Publish { epoch; members; leader } ->
      (* With a leader the handoff is complete: the wedged window for
         this epoch change closes. *)
      (match (leader, Hashtbl.find_opt t.wedge_times epoch) with
       | Some _, Some t0 ->
         Hashtbl.remove t.wedge_times epoch;
         Rsmr_sim.Histogram.record t.wedged_window (Engine.now t.engine -. t0)
       | (Some _ | None), _ -> ());
      t.on_dir_update ~epoch ~members ~leader

  and start_replica t host h early =
    let others = Config.others h.cfg host.me in
    let replica =
      Replica.create ~engine:t.engine ~params:t.smr_params ~config:h.cfg
        ~me:host.me
        ~send:(fun ~dst msg ->
          send t ~src:host.me ~dst
            (Wire.Block { epoch = h.epoch; data = B.Msg.encode msg }))
        ~broadcast:(fun msg ->
          (* One encode for the whole fan-out; the network also sizes
             and tags the shared wire value exactly once. *)
          Network.broadcast t.net ~src:host.me ~dsts:others
            (Wire.Block { epoch = h.epoch; data = B.Msg.encode msg }))
        ~obs:t.obs
        ~on_decide:(fun idx value -> on_decide t host h idx value)
        ()
    in
    h.replica <- Some replica;
    List.iter (fun (src, data) -> deliver replica ~src data) early

  (* --- decided-command processing --- *)

  and on_decide t host h idx value =
    if Epoch.activated host.epochs h.epoch then dispatch t host h idx value
    else step t host (Epoch.Decided { epoch = h.epoch; idx; value })

  (* [value] is the envelope's wire bytes (what the block ordered); it is
     decoded exactly once here, an [App]'s command included, and threaded
     alongside [env] so the applied-digest chain and residual
     re-submission reuse the bytes instead of re-encoding. *)
  and dispatch t host h idx value =
    let env = Envelope.decode Sm.read_command value in
    match (env, Epoch.wedged_at host.epochs h.epoch) with
    | Envelope.Drain, Some w when idx > w ->
      (* Every command this instance's leader proposed before the barrier
         is decided here too, and its residuals are on their way to the
         next epoch, so halting strands nothing. *)
      step t host (Epoch.Drained { epoch = h.epoch; leader = is_leader h })
    | Envelope.Drain, (Some _ | None) -> () (* only ever ordered past a wedge *)
    | (Envelope.App _ | Envelope.Reconfig _), Some w when idx > w -> (
      (* First-wedge-wins: the composed history for this epoch ends at
         the wedge index, so anything the block ordered later is a
         residual, never applied here.  [No_first_wedge] re-breaks this
         guard on purpose — the model checker's mutation self-test. *)
      match t.opts.Options.mutation with
      | Some Options.No_first_wedge -> process t host h idx env value
      | Some (Options.Skip_phase1 | Options.No_session_dedup) | None ->
        handle_residual t host h idx env value)
    | (Envelope.App _ | Envelope.Reconfig _), (Some _ | None) ->
      process t host h idx env value

  and handle_residual t host h idx env value =
    incr (Obs.scope_counter t.svc "residuals");
    incr h.sc_residuals;
    let leader = is_leader h in
    let client, seq = if Trace.active t.bus then env_client_seq env else (-1, -1) in
    if Trace.active t.bus && leader then
      Front.command_lifecycle t.front ~node:host.me "residual" ~client ~seq
        ~epoch:h.epoch ~idx;
    List.iter
      (function
        | Epoch.Resubmitted ->
          incr (Obs.scope_counter t.svc "residuals_resubmitted");
          if Trace.active t.bus then
            Front.lifecycle t.front ~node:host.me "resubmit"
              [ ("client", string_of_int client); ("seq", string_of_int seq);
                ("from", string_of_int h.epoch); ("to", string_of_int (h.epoch + 1)) ]
        | effect_ -> perform t host effect_)
      (advance host (Epoch.Residual { epoch = h.epoch; value; leader }))

  and process t host h idx env value =
    if idx > h.applied_hi then h.applied_hi <- idx;
    h.applied_digest <- Fnv.combine_int_framed h.applied_digest idx value;
    if Trace.active t.bus && is_leader h then begin
      let client, seq = env_client_seq env in
      Front.command_lifecycle t.front ~node:host.me "ordered" ~client ~seq
        ~epoch:h.epoch ~idx
    end;
    match (env : Sm.command Envelope.t) with
    | Envelope.App { client; seq; low_water; cmd } -> (
      (* [No_session_dedup] forgets what was applied: the mutation
         self-test of session dedup. *)
      match
        match t.opts.Options.mutation with
        | Some Options.No_session_dedup -> `New
        | Some (Options.No_first_wedge | Options.Skip_phase1) | None ->
          Session.check h.sessions ~client ~seq
      with
      | `New ->
        let app', resp = Sm.apply h.app cmd in
        let rsp = Sm.encode_response resp in
        h.app <- app';
        Session.record h.sessions ~client ~seq ~rsp;
        Session.trim h.sessions ~client ~below:low_water;
        incr (Lazy.force t.applied);
        incr h.sc_applied;
        if is_leader h then begin
          Front.command_lifecycle t.front ~node:host.me "applied" ~client ~seq
            ~epoch:h.epoch ~idx;
          reply_client t host ~client ~seq ~rsp
        end
      | `Dup rsp -> if is_leader h then reply_client t host ~client ~seq ~rsp
      | `Stale -> (* already applied and acknowledged: late duplicate *) ())
    | Envelope.Reconfig { client; seq; members } -> (
      match Session.check h.sessions ~client ~seq with
      | `New ->
        let rsp = "ok" in
        Session.record h.sessions ~client ~seq ~rsp;
        if is_leader h then reply_client t host ~client ~seq ~rsp;
        let snapshot =
          { Snapshot.app = Sm.snapshot h.app; sessions = Session.encode h.sessions }
        in
        step t host
          (Epoch.Wedge { epoch = h.epoch; idx; members; snapshot; leader = is_leader h })
      | `Dup rsp -> if is_leader h then reply_client t host ~client ~seq ~rsp
      | `Stale -> ())
    | Envelope.Drain -> ()

  (* --- wire handlers --- *)

  let unwedged host h = Option.is_none (Epoch.wedged_at host.epochs h.epoch)

  (* The encoded envelopes of a request window, in order.  A request
     already applied is answered from the session table instead; the
     fast-path dedup runs only once sessions are installed, since
     ordering a duplicate before that is harmless. *)
  let[@tail_mod_cons] rec encode_requests t host h ~activated ~src ~low_water =
    function
    | [] -> []
    | (seq, payload) :: rest -> (
      incr (Lazy.force t.requests);
      match
        if activated then Session.check h.sessions ~client:src ~seq else `New
      with
      | `Dup rsp ->
        reply_client t host ~client:src ~seq ~rsp;
        encode_requests t host h ~activated ~src ~low_water rest
      | `New | `Stale ->
        let env =
          Envelope.encode
            (match (payload : Client_msg.payload) with
             | Client_msg.Cmd cmd ->
               Envelope.App { client = src; seq; low_water; cmd }
             | Client_msg.Change_membership members ->
               Envelope.Reconfig { client = src; seq; members })
        in
        env :: encode_requests t host h ~activated ~src ~low_water rest)

  (* A client request window (a plain [Request] is a window of one): each
     request is deduplicated against the session table and replied to
     from it when already applied, and every other command reaches the
     block as one vector submission (one proposal batch, one
     broadcast). *)
  let handle_requests t host ~src ~low_water ~reqs =
    let current = Hashtbl.find_opt host.handles (Epoch.serving host.epochs) in
    match current with
    | Some h when is_leader h && unwedged host h ->
      let activated = Epoch.activated host.epochs h.epoch in
      submit_raw_many h (encode_requests t host h ~activated ~src ~low_water reqs)
    | Some _ | None ->
      (* A host with no live instance (wedged, retired, or awaiting state)
         names the newest configuration's leader from boot. *)
      let epoch, members = Epoch.latest host.epochs in
      let leader =
        match current with
        | Some ({ replica = Some r; _ } as h) when unwedged host h -> Replica.leader_hint r
        | Some _ | None -> Epoch.boot_leader members
      in
      List.iter
        (fun (seq, _) ->
          incr (Lazy.force t.requests);
          incr (Obs.scope_counter t.svc "redirects");
          send t ~src:host.me ~dst:src
            (Wire.Client (Client_msg.Redirect { seq; leader; members; epoch })))
        reqs

  let host_handler t host (env : Wire.t Network.envelope) =
    let src = env.Network.src in
    match env.Network.payload with
    | Wire.Block { epoch; data } -> (
      match Hashtbl.find_opt host.handles epoch with
      | Some { replica = Some r; _ } -> deliver r ~src data
      | Some { replica = None; _ } -> step t host (Epoch.Early { epoch; src; data })
      | None -> ())
    | Wire.Client (Client_msg.Request { seq; low_water; payload }) ->
      handle_requests t host ~src ~low_water ~reqs:[ (seq, payload) ]
    | Wire.Client (Client_msg.Request_batch { low_water; reqs }) ->
      handle_requests t host ~src ~low_water ~reqs
    | Wire.Client (Client_msg.Reply _ | Client_msg.Redirect _) -> ()
    | Wire.Bootstrap { epoch; members; prev_epoch = _; prev_members } ->
      step t host (Epoch.Bootstrap { epoch; members; prev_members })
    | Wire.Fetch_state { epoch } -> step t host (Epoch.Fetch { src; epoch })
    | Wire.State_chunk { epoch; index; total; data } ->
      step t host (Epoch.Chunk { epoch; index; total; data })
    | Wire.Retire { epoch } -> step t host (Epoch.Retire epoch)
    | Wire.Dir_update _ | Wire.Dir_lookup | Wire.Dir_info _ -> ()
  [@@rsmr.deterministic] [@@rsmr.total]

  (* Whole-system canonical snapshot: every behaviour-bearing field of
     every host, instance, client and queued message, serialized through
     the codec with all hash tables walked in sorted key order.  This is
     what the model checker fingerprints for visited-state dedup, so the
     exclusion rules match the block fingerprints: no virtual-clock
     reading, no timer due-times (presence only), no RNG, no metrics.
     Nothing ever decodes this — it is identity, not a wire format. *)
  let canonical_state t =
    let module W = Rsmr_app.Codec.Writer in
    let w = W.create ~size_hint:4096 () in
    let node w n = W.varint w (n : Node_id.t) in
    Stable.iter_sorted ~compare:Node_id.compare
      (fun id host ->
        let handle e = Hashtbl.find host.handles e in
        node w id;
        Epoch.write w host.epochs
          ~audit:(fun e ->
            let h = handle e in
            (h.applied_hi, Fnv.to_hex h.applied_digest))
          ~parts:(fun e ->
            let h = handle e in
            ( Sm.snapshot h.app,
              Session.encode h.sessions,
              Option.map Replica.fingerprint h.replica )))
      t.hosts;
    Front.write_state w t.front;
    List.iter
      (fun (src, dst, bulk) ->
        node w src;
        node w dst;
        W.bool w bulk;
        W.list w (fun w m -> W.nested w Wire.write m)
          (Network.queued t.net ~src ~dst ~bulk))
      (Network.links t.net);
    List.iter (fun n -> W.bool w (Network.is_crashed t.net n))
      (List.sort Node_id.compare
         (Stable.fold_sorted ~compare:Node_id.compare
            (fun id _ acc -> id :: acc)
            t.hosts []));
    W.contents w
  [@@rsmr.deterministic] [@@rsmr.codec.oneway]

  let create ~engine ?latency ?drop ?bandwidth ?smr_params ?options ?universe
      ?obs ?net_mode ~members () =
    if members = [] then invalid_arg "Service.create: empty member set";
    let obs = match obs with Some o -> o | None -> Obs.create () in
    Obs.set_meta obs "block" B.block_name;
    if List.assoc_opt "proto" (Obs.meta obs) = None then
      Obs.set_meta obs "proto" "core";
    let opts = Option.value options ~default:Options.default in
    (* The active strategy travels as registry metadata so every
       METRICS_*.json names it without out-of-band bookkeeping. *)
    Obs.set_meta obs "strategy"
      opts.Options.strategy.Strategy.name;
    let smr_params = Option.value smr_params ~default:Rsmr_smr.Params.default in
    let smr_params =
      match opts.Options.mutation with
      | Some Options.Skip_phase1 ->
        { smr_params with Rsmr_smr.Params.skip_phase1 = true }
      | Some (Options.No_first_wedge | Options.No_session_dedup) | None ->
        smr_params
    in
    let universe = Option.value universe ~default:members in
    let universe = List.sort_uniq Node_id.compare (universe @ members) in
    (* The tagger runs on every send, so classify tunnelled block payloads
       from their leading wire byte ([tag_of_encoded]) instead of a full
       decode, and intern the "block." ^ tag strings. *)
    let block_tags = Hashtbl.create 16 in
    let tagger = function
      | Wire.Block { data; _ } -> (
        let tag = B.Msg.tag_of_encoded data in
        match Hashtbl.find_opt block_tags tag with
        | Some interned -> interned
        | None ->
          let interned = "block." ^ tag in
          Hashtbl.add block_tags tag interned;
          interned)
      | other -> Wire.tag other
    in
    let net =
      Network.create engine ?mode:net_mode ?latency ?drop ?bandwidth
        ~bulk:Wire.bulk ~tagger ~sizer:Wire.size ~obs ()
    in
    let svc = Obs.scope ~labels:[ ("section", "svc") ] obs in
    let t =
      {
        engine;
        net;
        opts;
        smr_params;
        hosts = Hashtbl.create 32;
        front =
          Front.create ~engine ~net ~bus:(Obs.bus obs) ~wire:front_wire
            ~universe ~batch_window:opts.Options.client_batch_window
            ~batch_max:opts.Options.client_batch_max;
        on_dir_update = (fun ~epoch:_ ~members:_ ~leader:_ -> ());
        svc;
        applied = lazy (Obs.scope_counter svc "applied");
        replies = lazy (Obs.scope_counter svc "replies");
        requests = lazy (Obs.scope_counter svc "requests");
        obs;
        bus = Obs.bus obs;
        wedge_times = Hashtbl.create 4;
        wedged_window =
          Obs.histogram obs "wedged_window_s"
            ~labels:
              [
                ( "strategy",
                  opts.Options.strategy.Strategy.name );
              ];
      }
    in
    List.iter
      (fun node ->
        let host =
          {
            me = node;
            epochs =
              Epoch.create ~me:node ~dir:(Front.dir_id t.front)
                ~strategy:opts.Options.strategy ~members;
            handles = Hashtbl.create 4;
            timers = Hashtbl.create 4;
          }
        in
        Hashtbl.replace t.hosts node host;
        Network.register t.net node (fun env -> host_handler t host env))
      universe;
    (* Epoch 0 starts live everywhere with fresh state. *)
    List.iter
      (fun node ->
        let host = Hashtbl.find t.hosts node in
        perform t host (Epoch.Create { epoch = 0; members });
        perform t host (Epoch.Start { epoch = 0; early = [] }))
      members;
    Front.start t.front ~members;
    t

  let cluster t = Front.cluster t.front ~obs:t.obs
end

module Make (Sm : Rsmr_app.State_machine.S) = Make_on (Rsmr_smr.Paxos_block) (Sm)
