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

(* Most block messages an instance holds for a replica that has not
   started; later ones are dropped. *)
let early_cap = 64

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
     strategy value picks a policy per stage.  {!Transfer} reads the
     [transfer] field and owns the state-transfer policy; [Make_on]
     reads [handoff] and [residuals] and carries out {!Transfer}'s
     effects.  The client-facing edge (directory node, client endpoints,
     admin session) is {!Front}. *)

  type app_state = Sm.t
  type instance = {
    epoch : int;
    cfg : Config.t;
    mutable replica : Replica.t option;
    mutable early : (Node_id.t * string) list;
        (* block messages that arrived before the replica started
           (blocking handoff), newest first, at most [early_cap]; replayed
           when it starts.  A residual batch forwarded at wedge time is
           one of them. *)
    mutable app : Sm.t;
    mutable sessions : Session.t;
    mutable activated : bool;
    mutable wedged_at : int option;
    mutable applied_hi : int;
        (* highest log index whose command took effect in this instance
           (applied, deduplicated, or wedged) — the epoch-prefix-safety
           oracle asserts it never passes the wedge index *)
    mutable applied_digest : int64;
        (* FNV-1a chain over every (idx, envelope-bytes) this instance
           processed, in order.  Two nodes with equal [applied_hi] in the
           same epoch must have equal digests — the model checker's
           committed-prefix-agreement witness. *)
    mutable next_members : Node_id.t list;
    mutable spec_buf : (int * string) list; (* raw envelopes, newest first *)
    mutable residual_buf : string list;
        (* wedge-time residual envelopes awaiting batched re-submission
           into the next epoch, newest first *)
    mutable residual_timer : Engine.timer option;
    mutable announced : bool;
    sc : Obs.scope;  (* {node; epoch}-scoped registry view *)
    (* hot-path cells of that scope, resolved once per instance *)
    sc_applied : int ref;
    sc_residuals : int ref;
  }

  type host = {
    me : Node_id.t;
    instances : (int, instance) Hashtbl.t; (* live epochs only *)
    retired : (int, epoch_stat) Hashtbl.t; (* never created again *)
    mutable transfer : Transfer.t;
    fetch_timers : (int, Engine.timer) Hashtbl.t; (* {!Transfer.Arm_timer} *)
    mutable top_epoch : int;
    mutable latest_members : Node_id.t list;
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

  (* The instance with the highest epoch among those satisfying [pred].
     The table is keyed by epoch, so the maximum does not depend on the
     order the table is walked in. *)
  let newest_instance host ~pred =
    (* lint: order-insensitive *)
    Hashtbl.fold
      (fun _ inst acc ->
        if pred inst then
          match acc with
          | Some best when best.epoch >= inst.epoch -> acc
          | _ -> Some inst
        else acc)
      host.instances None
  [@@rsmr.assume_deterministic]

  let app_state t node =
    Option.bind (Hashtbl.find_opt t.hosts node) (fun host ->
        newest_instance host ~pred:(fun i -> i.activated))
    |> Option.map (fun i -> i.app)

  let host_epoch t node =
    Option.bind (Hashtbl.find_opt t.hosts node) (fun host ->
        newest_instance host ~pred:(fun _ -> true))
    |> Option.map (fun i -> i.epoch)

  let live_instances t node =
    match Hashtbl.find_opt t.hosts node with
    | None -> 0
    | Some host ->
      Stable.fold_sorted ~compare:Int.compare
        (fun _ inst acc -> if inst.replica = None then acc else acc + 1)
        host.instances 0

  let epoch_stat inst ~retired =
    { es_epoch = inst.epoch; es_activated = inst.activated;
      es_retired = retired; es_wedged_at = inst.wedged_at;
      es_applied_hi = inst.applied_hi; es_digest = inst.applied_digest }

  let epoch_stats t node =
    match Hashtbl.find_opt t.hosts node with
    | None -> []
    | Some host ->
      let live _ inst acc = epoch_stat inst ~retired:false :: acc in
      let retired _ s acc = s :: acc in
      Stable.fold_sorted ~compare:Int.compare retired host.retired
        (Stable.fold_sorted ~compare:Int.compare live host.instances [])
      |> List.sort (fun a b -> Int.compare a.es_epoch b.es_epoch)

  let current_leader t =
    Stable.fold_sorted ~compare:Node_id.compare
      (fun id host acc ->
        if Network.is_crashed t.net id then acc
        else
          match
            newest_instance host ~pred:(fun i ->
                i.activated (* leading AND able to execute/reply *)
                &&
                match i.replica with
                | Some r -> Replica.is_leader r
                | None -> false)
          with
          | Some inst -> (
            match acc with
            | Some (e, _) when e >= inst.epoch -> acc
            | _ -> Some (inst.epoch, id))
          | None -> acc)
      t.hosts None
    |> Option.map snd

  let send t ~src ~dst wire = Network.send t.net ~src ~dst wire

  let reply_client t host ~client ~seq ~rsp =
    incr (Lazy.force t.replies);
    send t ~src:host.me ~dst:client (Wire.Client (Client_msg.Reply { seq; rsp }))

  let is_inst_leader inst =
    match inst.replica with Some r -> Replica.is_leader r | None -> false

  (* Announce a freshly live configuration: give the directory a leader
     hint.  Done by the instance's leader once it is both activated and
     elected.  The previous instance halts on its own schedule, once it
     has drained ({!drained}). *)
  let announce t host inst =
    if inst.activated && (not inst.announced) && is_inst_leader inst then begin
      inst.announced <- true;
      (* Handoff complete: the wedged window for this epoch change closes
         with the directory publish below. *)
      (match Hashtbl.find_opt t.wedge_times inst.epoch with
       | Some t0 ->
         Hashtbl.remove t.wedge_times inst.epoch;
         Rsmr_sim.Histogram.record t.wedged_window (Engine.now t.engine -. t0)
       | None -> ());
      send t ~src:host.me ~dst:(Front.dir_id t.front)
        (Wire.Dir_update
           {
             epoch = inst.epoch;
             members = inst.cfg.Config.members;
             leader = Some host.me;
           });
      t.on_dir_update ~epoch:inst.epoch ~members:inst.cfg.Config.members
        ~leader:(Some host.me)
    end

  (* Poll for the announce condition until it fires or the epoch retires:
     the embedded replica decides leadership with no callback. *)
  let rec announce_poll t host epoch =
    match Hashtbl.find_opt host.instances epoch with
    | Some inst when not inst.announced ->
      announce t host inst;
      if not inst.announced then
        ignore
          (Engine.schedule t.engine ~delay:0.05 (fun () ->
               announce_poll t host epoch))
    | Some _ | None -> ()

  (* Submit envelopes in wire form: the whole list reaches the block as
     one proposal batch (one broadcast when the block leads), in list
     order. *)
  let submit_raw_many inst values =
    match (inst.replica, values) with
    | None, _ | Some _, [] -> ()
    | Some r, [ value ] -> Replica.submit r value
    | Some r, _ -> Replica.submit_many r values

  let drain_barrier = Envelope.encode Envelope.Drain

  (* Order the drain barrier after everything this host's live instance of
     [epoch] has proposed or buffered, if it leads that instance. *)
  let submit_drain host epoch =
    match Hashtbl.find_opt host.instances epoch with
    | Some inst when is_inst_leader inst ->
      submit_raw_many inst [ drain_barrier ]
    | Some _ | None -> ()

  (* --- decided-command processing --- *)

  let env_client_seq (env : _ Envelope.t) =
    match env with
    | Envelope.App { client; seq; _ } | Envelope.Reconfig { client; seq; _ } ->
      (client, seq)
    | Envelope.Drain -> (-1, -1) (* never traced: dispatch diverts it *)

  (* The new value goes in first: an [Install] re-enters ({!activate}). *)
  let transfer_step host input =
    let tr, effects = Transfer.step host.transfer input in
    host.transfer <- tr;
    effects

  (* [value] is the envelope's wire bytes (what the block ordered); it is
     decoded exactly once here, an [App]'s command included, and threaded
     alongside [env] so the applied-digest chain and residual
     re-submission reuse the bytes instead of re-encoding. *)
  let rec dispatch t host inst idx value =
    let env = Envelope.decode Sm.read_command value in
    match (env, inst.wedged_at) with
    | Envelope.Drain, Some w when idx > w -> drained t host inst
    | Envelope.Drain, (Some _ | None) -> () (* only ever ordered past a wedge *)
    | (Envelope.App _ | Envelope.Reconfig _), Some w when idx > w -> (
      (* First-wedge-wins: the composed history for this epoch ends at
         the wedge index, so anything the block ordered later is a
         residual, never applied here.  [No_first_wedge] re-breaks this
         guard on purpose — the model checker's mutation self-test. *)
      match t.opts.Options.mutation with
      | Some Options.No_first_wedge -> process t host inst idx env value
      | Some (Options.Skip_phase1 | Options.No_session_dedup) | None ->
        handle_residual t host inst idx env value)
    | (Envelope.App _ | Envelope.Reconfig _), (Some _ | None) ->
      process t host inst idx env value

  (* The drain barrier is decided: every command this instance's leader
     proposed before it is decided here too, and its residuals are on
     their way to the next epoch, so halting strands nothing.  A halted
     leader sends no further commit notices, so it tells the other
     members to halt. *)
  and drained t host inst =
    if is_inst_leader inst then
      List.iter
        (fun m ->
          send t ~src:host.me ~dst:m (Wire.Retire { epoch = inst.epoch + 1 }))
        (Config.others inst.cfg host.me);
    retire_instance t host inst

  and handle_residual t host inst idx env value =
    incr (Obs.scope_counter t.svc "residuals");
    incr inst.sc_residuals;
    if Trace.active t.bus && is_inst_leader inst then begin
      let client, seq = env_client_seq env in
      Front.command_lifecycle t.front ~node:host.me "residual" ~client ~seq
        ~epoch:inst.epoch ~idx
    end;
    (* Only the old instance's leader re-submits, to avoid an n-fold
       duplicate storm; session dedup makes any duplicates harmless.  If the
       leader does not itself host the next instance (disjoint
       replacement), it forwards the command to a new member as a static
       Submit, which that member's replica routes to its leader. *)
    if t.opts.Options.strategy.Strategy.residuals = `Resubmit
       && is_inst_leader inst
    then begin
      incr (Obs.scope_counter t.svc "residuals_resubmitted");
      if Trace.active t.bus then begin
        let client, seq = env_client_seq env in
        Front.lifecycle t.front ~node:host.me "resubmit"
          [
            ("client", string_of_int client);
            ("seq", string_of_int seq);
            ("from", string_of_int inst.epoch);
            ("to", string_of_int (inst.epoch + 1));
          ]
      end;
      (* Buffer and flush on a zero-delay timer: every residual decided in
         the same engine step (the common case — one committed batch past
         the wedge point) crosses the epoch boundary as a single vector
         submission instead of a per-command storm. *)
      inst.residual_buf <- value :: inst.residual_buf;
      if inst.residual_timer = None then
        inst.residual_timer <-
          Some
            (Engine.schedule t.engine ~delay:0.0 (fun () ->
                 inst.residual_timer <- None;
                 flush_residuals t host inst))
    end

  and flush_residuals t host inst =
    let values = List.rev inst.residual_buf in
    inst.residual_buf <- [];
    if values <> [] then begin
      match Hashtbl.find_opt host.instances (inst.epoch + 1) with
      | Some next -> submit_raw_many next values
      | None when Hashtbl.mem host.retired (inst.epoch + 1) ->
        () (* a retired epoch orders nothing more *)
      | None -> (
        (* This host is not in the next configuration: forward the whole
           residual batch as one static message to its {!Transfer.boot_leader},
           usually the leader, which routes it onward; the Bootstrap sent
           on the same link at wedge time has created its instance before
           this arrives (a member that knows that leader could forward the
           batch to it before it exists). *)
        match Transfer.boot_leader inst.next_members with
        | Some dst ->
          let msg =
            match values with
            | [ value ] -> B.submit_msg value
            | _ -> B.submit_many_msg values
          in
          send t ~src:host.me ~dst
            (Wire.Block { epoch = inst.epoch + 1; data = B.Msg.encode msg })
        | None -> ())
    end

  and process t host inst idx env value =
    if idx > inst.applied_hi then inst.applied_hi <- idx;
    inst.applied_digest <-
      Fnv.combine_int_framed inst.applied_digest idx value;
    if Trace.active t.bus && is_inst_leader inst then begin
      let client, seq = env_client_seq env in
      Front.command_lifecycle t.front ~node:host.me "ordered" ~client ~seq
        ~epoch:inst.epoch ~idx
    end;
    match (env : Sm.command Envelope.t) with
    | Envelope.App { client; seq; low_water; cmd } -> (
      (* [No_session_dedup] forgets what was applied: the mutation
         self-test of session dedup. *)
      match
        match t.opts.Options.mutation with
        | Some Options.No_session_dedup -> `New
        | Some (Options.No_first_wedge | Options.Skip_phase1) | None ->
          Session.check inst.sessions ~client ~seq
      with
      | `New ->
        let app', resp = Sm.apply inst.app cmd in
        let rsp = Sm.encode_response resp in
        inst.app <- app';
        Session.record inst.sessions ~client ~seq ~rsp;
        Session.trim inst.sessions ~client ~below:low_water;
        incr (Lazy.force t.applied);
        incr inst.sc_applied;
        if is_inst_leader inst then begin
          Front.command_lifecycle t.front ~node:host.me "applied" ~client ~seq
            ~epoch:inst.epoch ~idx;
          reply_client t host ~client ~seq ~rsp
        end
      | `Dup rsp -> if is_inst_leader inst then reply_client t host ~client ~seq ~rsp
      | `Stale -> (* already applied and acknowledged: late duplicate *) ())
    | Envelope.Reconfig { client; seq; members } -> (
      match Session.check inst.sessions ~client ~seq with
      | `New ->
        let rsp = "ok" in
        Session.record inst.sessions ~client ~seq ~rsp;
        if is_inst_leader inst then reply_client t host ~client ~seq ~rsp;
        wedge t host inst idx members
      | `Dup rsp -> if is_inst_leader inst then reply_client t host ~client ~seq ~rsp
      | `Stale -> ())
    | Envelope.Drain -> ()

  and on_decide t host inst idx value =
    if inst.activated then dispatch t host inst idx value
    else inst.spec_buf <- (idx, value) :: inst.spec_buf

  (* --- wedging and the next configuration --- *)

  and wedge t host inst widx members' =
    (* Reconfig commands from two different clients can both be decided in
       the same instance (session dedup is per-client); the first decided
       one wins the wedge and later ones are no-ops, so this stays total
       on any wire input. *)
    if inst.wedged_at = None then begin
      inst.wedged_at <- Some widx;
      inst.next_members <- members';
      incr (Obs.scope_counter t.svc "wedges");
      incr (Obs.scope_counter inst.sc "wedged");
      if not (Hashtbl.mem t.wedge_times (inst.epoch + 1)) then
        Hashtbl.add t.wedge_times (inst.epoch + 1) (Engine.now t.engine);
      let snapshot =
        { Snapshot.app = Sm.snapshot inst.app;
          sessions = Session.encode inst.sessions }
      in
      (* The digest of what this host will donate: every member that
         wedges an epoch at one index must donate the same bytes, since a
         joiner may assemble one snapshot from two donors. *)
      if Trace.active t.bus then
        Trace.emit t.bus ~time:(Engine.now t.engine) ~node:host.me
          ~topic:`Reconfig
          ~attrs:
            [
              ("epoch", string_of_int inst.epoch);
              ("widx", string_of_int widx);
              ("strategy", t.opts.Options.strategy.Strategy.name);
              ("snapshot", Fnv.to_hex (Fnv.hash (Snapshot.encode snapshot)));
            ]
          "wedged";
      let epoch = inst.epoch and members = inst.cfg.Config.members in
      let new_epoch = epoch + 1 in
      if new_epoch > host.top_epoch then begin
        host.top_epoch <- new_epoch;
        host.latest_members <- members'
      end;
      (* Serve the parked fetches, tell the new configuration and the
         directory that it exists, then push.  The closures capture no
         instance: the host drops it when it retires. *)
      let pushes, serves =
        transfer_step host
          (Transfer.Wedged
             { epoch = new_epoch; members = members'; prev_members = members; snapshot })
        |> List.partition (function
             | Transfer.Send_snapshot { push; _ } -> push
             | Transfer.(Send_fetch _ | Arm_timer _ | Cancel_timer _ | Install _) -> false)
      in
      List.iter (perform t host) serves;
      let bootstrap_members () =
        List.iter
          (fun m ->
            if not (Node_id.equal m host.me) then
              send t ~src:host.me ~dst:m
                (Wire.Bootstrap
                   {
                     epoch = new_epoch;
                     members = members';
                     prev_epoch = epoch;
                     prev_members = members;
                   }))
          members';
        send t ~src:host.me ~dst:(Front.dir_id t.front)
          (Wire.Dir_update { epoch = new_epoch; members = members'; leader = None })
      in
      bootstrap_members ();
      List.iter (perform t host) pushes;
      (* The leader drains the instance before it halts ({!drained}).  The
         barrier goes in from a fresh engine step, not from inside the
         block's decide callback. *)
      if is_inst_leader inst then
        ignore
          (Engine.schedule t.engine ~delay:0.0 (fun () ->
               submit_drain host epoch));
      (* Bootstrap is fire-and-forget: a new member unreachable at wedge
         time would never learn its epoch exists, and a directory that
         lost every update would advertise the old configuration for good.
         Re-send on a slow timer for a fixed window — retirement is no
         stop signal, since the old epoch drains while a crashed newcomer
         may still be in the dark; duplicates are ignored on receipt.  The
         same tick re-submits the drain barrier from whoever leads the
         instance now, in case the leader that wedged it crashed first. *)
      let rec rebootstrap rounds =
        if rounds > 0 then begin
          bootstrap_members ();
          submit_drain host epoch;
          ignore
            (Engine.schedule t.engine ~delay:0.25 (fun () ->
                 rebootstrap (rounds - 1)))
        end
      in
      ignore (Engine.schedule t.engine ~delay:0.25 (fun () -> rebootstrap 40));
      t.on_dir_update ~epoch:new_epoch ~members:members' ~leader:None;
      (* A host in both configurations transfers state locally: its own
         wedge-point state is exactly the new instance's initial state.
         The next instance gets a copy of the session table, not this one:
         under [No_first_wedge] this instance keeps applying past the
         wedge, and those records must not leak into the next epoch. *)
      if
        List.exists (Node_id.equal host.me) members'
        && not (Hashtbl.mem host.retired new_epoch)
      then begin
        let next =
          match Hashtbl.find_opt host.instances new_epoch with
          | Some next -> next
          | None ->
            create_instance t host ~epoch:new_epoch ~members:members'
              ~boot:(`Await members)
        in
        activate t host next ~app:inst.app
          ~sessions:(Session.copy inst.sessions) ~local:true
      end
    end

  and create_instance t host ~epoch ~members ~boot =
    let cfg = Config.make ~instance_id:epoch ~members in
    let sc = Obs.scope ~node:host.me ~epoch t.obs in
    let inst =
      {
        epoch;
        cfg;
        replica = None;
        early = [];
        app = Sm.init ();
        sessions = Session.create ();
        activated = false;
        wedged_at = None;
        applied_hi = -1;
        applied_digest = Fnv.empty;
        next_members = [];
        spec_buf = [];
        residual_buf = [];
        residual_timer = None;
        announced = false;
        sc;
        sc_applied = Obs.scope_counter sc "applied";
        sc_residuals = Obs.scope_counter sc "residuals";
      }
    in
    Hashtbl.replace host.instances epoch inst;
    if epoch > host.top_epoch then begin
      host.top_epoch <- epoch;
      host.latest_members <- members
    end;
    (match boot with
     | `Active (app, sessions) ->
       inst.app <- app;
       inst.sessions <- sessions;
       inst.activated <- true;
       inst.announced <- epoch = 0;
       start_replica t host inst
     | `Await prev_members ->
       (* Speculative handoff: the instance begins ordering immediately,
          concurrently with state transfer. *)
       if t.opts.Options.strategy.Strategy.handoff = `Speculative then
         start_replica t host inst;
       transfer t host
         (Transfer.Awaiting { epoch; members; prev_members;
            prev_live = Hashtbl.mem host.instances (epoch - 1) }));
    inst

  and start_replica t host inst =
    if inst.replica = None then begin
      let others = Config.others inst.cfg host.me in
      let replica =
        Replica.create ~engine:t.engine ~params:t.smr_params ~config:inst.cfg
          ~me:host.me
          ~send:(fun ~dst msg ->
            send t ~src:host.me ~dst
              (Wire.Block { epoch = inst.epoch; data = B.Msg.encode msg }))
          ~broadcast:(fun msg ->
            (* One encode for the whole fan-out; the network also sizes
               and tags the shared wire value exactly once. *)
            Network.broadcast t.net ~src:host.me ~dsts:others
              (Wire.Block { epoch = inst.epoch; data = B.Msg.encode msg }))
          ~obs:t.obs
          ~on_decide:(fun idx value -> on_decide t host inst idx value)
          ()
      in
      inst.replica <- Some replica;
      let early = List.rev inst.early in
      inst.early <- [];
      List.iter (fun (src, data) -> Replica.handle replica ~src (B.Msg.decode data)) early
    end

  (* A retired epoch is data: its audit record, plus what the host
     donated into it ({!Transfer}). *)
  and retire_instance t host inst =
    Hashtbl.remove host.instances inst.epoch;
    Option.iter Replica.halt inst.replica;
    Hashtbl.replace host.retired inst.epoch (epoch_stat inst ~retired:true);
    transfer t host
      (Transfer.Retired { epoch = inst.epoch; wedged = inst.wedged_at <> None;
          next_live = Hashtbl.mem host.instances (inst.epoch + 1) })

  and activate t host inst ~app ~sessions ~local =
    if not inst.activated then begin
      inst.app <- app;
      inst.sessions <- sessions;
      inst.activated <- true;
      incr
        (Obs.scope_counter t.svc
           (if local then "local_activations" else "transfers"));
      if Trace.active t.bus then
        Trace.emit t.bus ~time:(Engine.now t.engine) ~node:host.me
          ~topic:`Reconfig
          ~attrs:
            [
              ("epoch", string_of_int inst.epoch);
              ("local", if local then "1" else "0");
              ("strategy", t.opts.Options.strategy.Strategy.name);
            ]
          "activated";
      transfer t host (Transfer.Activated inst.epoch);
      if inst.replica = None then start_replica t host inst;
      (* Execute everything the speculative instance ordered while the
         snapshot was in flight, in log order.  Sort by slot index only:
         polymorphic compare on raw envelopes would order replay by
         payload bytes on (impossible, but cheap to exclude) duplicate
         indices. *)
      let buffered =
        List.sort
          (fun (i, _) (j, _) -> Int.compare i j)
          (List.rev inst.spec_buf)
      in
      inst.spec_buf <- [];
      List.iter (fun (idx, value) -> dispatch t host inst idx value) buffered;
      announce_poll t host inst.epoch
    end

  and transfer t host input = List.iter (perform t host) (transfer_step host input)

  and perform t host = function
    | Transfer.Send_snapshot { dst; epoch; snapshot; push = _ } ->
      let pieces = Snapshot.chunk snapshot ~size:Snapshot.chunk_bytes in
      let total = List.length pieces in
      List.iteri
        (fun index data ->
          incr (Obs.scope_counter t.svc "chunks_sent");
          let bytes = Obs.scope_counter t.svc "transfer_bytes" in
          bytes := !bytes + String.length data;
          send t ~src:host.me ~dst (Wire.State_chunk { epoch; index; total; data }))
        pieces
    | Transfer.Send_fetch { dst; epoch } ->
      if Trace.active t.bus then
        Trace.emit t.bus ~time:(Engine.now t.engine) ~node:host.me
          ~topic:`Reconfig
          ~attrs:
            [
              ("epoch", string_of_int epoch);
              ("donor", string_of_int dst);
              ("strategy", t.opts.Options.strategy.Strategy.name);
            ]
          "fetch";
      send t ~src:host.me ~dst (Wire.Fetch_state { epoch })
    | Transfer.Arm_timer epoch ->
      perform t host (Transfer.Cancel_timer epoch);
      Hashtbl.replace host.fetch_timers epoch
        (Engine.schedule t.engine ~delay:Transfer.fetch_timeout (fun () ->
             transfer t host (Transfer.Timer epoch)))
    | Transfer.Cancel_timer epoch ->
      Option.iter (Engine.cancel t.engine)
        (Hashtbl.find_opt host.fetch_timers epoch);
      Hashtbl.remove host.fetch_timers epoch
    | Transfer.Install { epoch; chunks } ->
      Option.iter
        (fun inst ->
          (* Chunks off the wire may be forged: what does not decode is
             dropped here, and the joiner fetches again. *)
          match
            let snapshot = Snapshot.of_chunks chunks in
            let app = Sm.restore snapshot.Snapshot.app in
            (app, Session.decode snapshot.Snapshot.sessions)
          with
          | app, sessions -> activate t host inst ~app ~sessions ~local:false
          | exception Rsmr_app.Codec.Truncated ->
            transfer t host (Transfer.Rejected epoch))
        (Hashtbl.find_opt host.instances epoch)

  (* --- wire handlers --- *)

  let handle_bootstrap t host ~epoch ~members ~prev_epoch:_ ~prev_members =
    (* An empty member list off the wire would make Config.make blow up;
       such a bootstrap is garbage, not a configuration.  A late bootstrap
       for an epoch this host retired is ignored. *)
    if
      members <> []
      && (not (Hashtbl.mem host.retired epoch))
      && not (Hashtbl.mem host.instances epoch)
    then ignore (create_instance t host ~epoch ~members ~boot:(`Await prev_members))

  let handle_retire t host ~epoch =
    Stable.iter_sorted ~compare:Int.compare
      (fun e inst -> if e < epoch then retire_instance t host inst)
      host.instances

  (* The encoded envelopes of a request window, in order.  A request
     already applied is answered from the session table instead. *)
  let[@tail_mod_cons] rec encode_requests t host inst ~src ~low_water =
    function
    | [] -> []
    | (seq, payload) :: rest -> (
      incr (Lazy.force t.requests);
      (* Fast-path dedup only once sessions are installed; ordering a
         duplicate before that is harmless. *)
      match
        if inst.activated then Session.check inst.sessions ~client:src ~seq
        else `New
      with
      | `Dup rsp ->
        reply_client t host ~client:src ~seq ~rsp;
        encode_requests t host inst ~src ~low_water rest
      | `New | `Stale ->
        let env =
          Envelope.encode
            (match (payload : Client_msg.payload) with
             | Client_msg.Cmd cmd ->
               Envelope.App { client = src; seq; low_water; cmd }
             | Client_msg.Change_membership members ->
               Envelope.Reconfig { client = src; seq; members })
        in
        env :: encode_requests t host inst ~src ~low_water rest)

  (* A client request window (a plain [Request] is a window of one): each
     request is deduplicated against the session table and replied to
     from it when already applied, and every other command reaches the
     block as one vector submission (one proposal batch, one
     broadcast). *)
  let handle_requests t host ~src ~low_water ~reqs =
    let current = newest_instance host ~pred:(fun i -> i.replica <> None) in
    match current with
    | Some inst when is_inst_leader inst && inst.wedged_at = None ->
      submit_raw_many inst (encode_requests t host inst ~src ~low_water reqs)
    | Some _ | None ->
      (* A host with no live instance (wedged, retired, or awaiting state)
         names the newest configuration's leader from boot. *)
      let leader =
        match current with
        | Some { wedged_at = None; replica = Some r; _ } -> Replica.leader_hint r
        | Some _ | None -> Transfer.boot_leader host.latest_members
      in
      List.iter
        (fun (seq, _) ->
          incr (Lazy.force t.requests);
          incr (Obs.scope_counter t.svc "redirects");
          send t ~src:host.me ~dst:src
            (Wire.Client
               (Client_msg.Redirect
                  { seq; leader; members = host.latest_members; epoch = host.top_epoch })))
        reqs

  let host_handler t host (env : Wire.t Network.envelope) =
    let src = env.Network.src in
    match env.Network.payload with
    | Wire.Block { epoch; data } -> (
      match Hashtbl.find_opt host.instances epoch with
      | Some inst -> (
        match inst.replica with
        | Some r -> Replica.handle r ~src (B.Msg.decode data)
        | None ->
          if List.compare_length_with inst.early early_cap < 0 then
            inst.early <- (src, data) :: inst.early)
      | None -> ())
    | Wire.Client (Client_msg.Request { seq; low_water; payload }) ->
      handle_requests t host ~src ~low_water ~reqs:[ (seq, payload) ]
    | Wire.Client (Client_msg.Request_batch { low_water; reqs }) ->
      handle_requests t host ~src ~low_water ~reqs
    | Wire.Client (Client_msg.Reply _ | Client_msg.Redirect _) -> ()
    | Wire.Bootstrap { epoch; members; prev_epoch; prev_members } ->
      handle_bootstrap t host ~epoch ~members ~prev_epoch ~prev_members
    | Wire.Fetch_state { epoch } -> transfer t host (Transfer.Fetch { src; epoch })
    | Wire.State_chunk { epoch; index; total; data } ->
      transfer t host
        (Transfer.Chunk
           { epoch; index; total; data;
             live = Hashtbl.mem host.instances epoch;
             retired = Hashtbl.mem host.retired epoch })
    | Wire.Retire { epoch } -> handle_retire t host ~epoch
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
    let encode_stat s =
      W.varint w s.es_epoch;
      W.bool w s.es_activated;
      W.option w (fun w v -> W.varint w v) s.es_wedged_at;
      W.zigzag w s.es_applied_hi;
      W.string w (Fnv.to_hex s.es_digest)
    in
    let encode_instance inst =
      encode_stat (epoch_stat inst ~retired:false);
      W.list w node inst.cfg.Config.members;
      W.list w
        (fun w (src, data) ->
          node w src;
          W.string w data)
        inst.early;
      W.list w node inst.next_members;
      W.list w
        (fun w (i, v) ->
          W.varint w i;
          W.string w v)
        inst.spec_buf;
      W.list w W.string (List.rev inst.residual_buf);
      W.bool w (Engine.armed inst.residual_timer);
      W.bool w inst.announced;
      W.string w (Sm.snapshot inst.app);
      W.string w (Session.encode inst.sessions);
      W.option w W.string (Option.map Replica.fingerprint inst.replica)
    in
    Stable.iter_sorted ~compare:Node_id.compare
      (fun id host ->
        node w id;
        W.varint w host.top_epoch;
        W.list w node host.latest_members;
        Transfer.write w host.transfer;
        Stable.iter_sorted ~compare:Int.compare
          (fun _ inst -> encode_instance inst)
          host.instances;
        Stable.iter_sorted ~compare:Int.compare
          (fun _ s -> encode_stat s)
          host.retired)
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
            instances = Hashtbl.create 4;
            retired = Hashtbl.create 4;
            transfer = Transfer.create ~me:node ~transfer:opts.Options.strategy.transfer;
            fetch_timers = Hashtbl.create 4;
            top_epoch = 0;
            latest_members = members;
          }
        in
        Hashtbl.replace t.hosts node host;
        Network.register t.net node (fun env -> host_handler t host env))
      universe;
    (* Epoch 0 starts live everywhere with fresh state. *)
    List.iter
      (fun node ->
        let host = Hashtbl.find t.hosts node in
        ignore
          (create_instance t host ~epoch:0 ~members
             ~boot:(`Active (Sm.init (), Session.create ()))))
      members;
    Front.start t.front ~members;
    t

  let cluster t = Front.cluster t.front ~obs:t.obs
end

module Make (Sm : Rsmr_app.State_machine.S) = Make_on (Rsmr_smr.Paxos_block) (Sm)
