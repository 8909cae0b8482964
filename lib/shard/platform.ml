module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Obs = Rsmr_obs.Registry
module Network = Rsmr_net.Network
module Node_id = Rsmr_net.Node_id
module Endpoint = Rsmr_client.Endpoint
module Client_msg = Rsmr_client.Client_msg
module Wire = Rsmr_core.Wire
module Options = Rsmr_core.Options
module Kv = Rsmr_app.Kv
module Dir_app = Rsmr_app.Dir_app

let shard_name i = "shard-" ^ string_of_int i

let key_of_command cmd =
  match Kv.decode_command cmd with
  | Kv.Get k | Kv.Delete k | Kv.Put (k, _) | Kv.Append (k, _) | Kv.Cas (k, _, _)
    -> k

module type S = sig
  module Dir_svc : Rsmr_core.Service.S with type app_state = Dir_app.t
  module Shard_svc : Rsmr_core.Service.S with type app_state = Kv.t

  type t

  val create :
    engine:Engine.t ->
    ?latency:Rsmr_net.Latency.t ->
    ?drop:float ->
    ?bandwidth:float ->
    ?smr_params:Rsmr_smr.Params.t ->
    ?options:Options.t ->
    ?obs:Obs.t ->
    ?dir_members:Node_id.t list ->
    ?keyspace:Keyspace.t ->
    pool:Node_id.t list ->
    shards:Node_id.t list list ->
    unit ->
    t

  val cluster : t -> Rsmr_iface.Cluster.t
  val engine : t -> Engine.t
  val obs : t -> Obs.t
  val counters : t -> Counters.t
  val keyspace : t -> Keyspace.t
  val n_shards : t -> int
  val shard : t -> int -> Shard_svc.t
  val shard_members : t -> int -> Node_id.t list
  val dir : t -> Dir_svc.t
  val dir_client : t -> Dir_client.t
  val dir_epoch_regressions : t -> int
  val first_client_id : t -> Node_id.t
  val control : t -> Rsmr_iface.Overlay.control
  val isolate_dir : t -> Node_id.t list -> unit

  val rebalance :
    t ->
    node:Node_id.t ->
    from_:int ->
    to_:int ->
    ?on_done:(bool -> unit) ->
    unit ->
    unit

  val endpoint_counter_total : t -> string -> int
end

module Make_on (B : Rsmr_smr.Block_intf.S) = struct
  module Dir_svc = Rsmr_core.Service.Make_on (B) (Dir_app)
  module Shard_svc = Rsmr_core.Service.Make_on (B) (Kv)

  type shard = {
    index : int;
    svc : Shard_svc.t;
    ctl : Rsmr_iface.Cluster.t;
    mutable cached_epoch : int;
    mutable cached_members : Node_id.t list;
  }

  type client_rec = { eps : Endpoint.t array }

  type t = {
    engine : Engine.t;
    obs : Obs.t;
    opts : Options.t;
    pool : Node_id.t list;
    keyspace : Keyspace.t;
    shards : shard array;
    dir_svc : Dir_svc.t;
    dirc : Dir_client.t;
    clients : (Node_id.t, client_rec) Hashtbl.t;
    mutable on_reply : Rsmr_iface.Cluster.reply_handler;
    shard_sc : Obs.scope;  (* the platform's {section=shard} counts *)
    top : Node_id.t;  (* highest pool id; overlay service ids sit above *)
  }

  let engine t = t.engine
  let obs t = t.obs
  let counters t = Obs.counters t.obs "shard"
  let keyspace t = t.keyspace
  let n_shards t = Array.length t.shards
  let shard t i = t.shards.(i).svc
  let shard_members t i = Shard_svc.current_members t.shards.(i).svc
  let dir t = t.dir_svc
  let dir_client t = t.dirc
  let dir_epoch_regressions t = Dir_client.regressions t.dirc
  let first_client_id t = t.top + 10

  let client_handler ep (env : Wire.t Network.envelope) =
    match env.Network.payload with
    | Wire.Client msg -> Endpoint.handle ep ~src:env.Network.src msg
    | _ -> ()
  [@@rsmr.deterministic] [@@rsmr.total]

  (* One endpoint per (client, shard): the client's session with that
     shard's replica group.  The endpoint's directory hook resolves the
     shard's name through the replicated directory — stale answers,
     redirects and directory leader changes are all absorbed by the
     ordinary retry machinery. *)
  let make_endpoint t sh cid =
    let net = Shard_svc.net sh.svc in
    let ep =
      Endpoint.create ~engine:t.engine ~me:cid
        ~send:(fun ~dst msg -> Network.send net ~src:cid ~dst (Wire.Client msg))
        ~members:sh.cached_members
        ~batch_window:t.opts.Options.client_batch_window
        ~batch_max:t.opts.Options.client_batch_max
        ~bus:(Obs.bus t.obs)
        ~lookup:(fun k ->
          incr (Obs.scope_counter t.shard_sc "dir_lookups");
          Dir_client.lookup t.dirc ~name:(shard_name sh.index) (fun entry ->
              match entry with
              | Some e when e.Dir_app.members <> [] -> k entry
              | Some _ | None ->
                (* Directory has no entry yet (initial publish still in
                   flight): fall back to the freshest locally cached
                   configuration so the endpoint keeps probing. *)
                k
                  (Some
                     {
                       Dir_app.epoch = sh.cached_epoch;
                       members = sh.cached_members;
                       leader = None;
                     })))
        ~on_reply:(fun ~seq ~rsp -> t.on_reply ~client:cid ~seq ~rsp)
        ()
    in
    Network.register net cid (client_handler ep);
    ep

  let add_client t cid =
    if not (Hashtbl.mem t.clients cid) then begin
      if cid < first_client_id t then
        invalid_arg "Platform.add_client: id below first_client_id";
      let eps = Array.map (fun sh -> make_endpoint t sh cid) t.shards in
      Hashtbl.replace t.clients cid { eps }
    end

  let submit t ~client ~seq ~cmd =
    match Hashtbl.find_opt t.clients client with
    | None -> invalid_arg "Platform.submit: unknown client (call add_client)"
    | Some r ->
      let s = Keyspace.shard_of t.keyspace (key_of_command cmd) in
      Endpoint.submit r.eps.(s) ~seq ~payload:(Client_msg.Cmd cmd)

  (* Cut [ns] away from the rest of the directory overlay.  The overlay's
     auxiliary ids (oracle node, admin session, the platform's directory
     session) ride with the majority side — a node absent from every
     group could talk to nobody, which is not what "isolate these" means. *)
  let isolate_dir t ns =
    let d = Dir_svc.directory_id t.dir_svc in
    let aux = [ d; d + 1; t.top + 3 ] in
    let out id = List.exists (Node_id.equal id) ns in
    let rest = List.filter (fun id -> not (out id)) (t.pool @ aux) in
    Network.partition (Dir_svc.net t.dir_svc) [ ns; rest ]

  (* The platform's control surface: crashes are machine-level (every
     overlay at once), partition/heal act on the directory overlay (the
     shard overlays are exercised through rebalance + machine faults),
     and reconfigure moves the directory service itself. *)
  let control t =
    let dir_net = Dir_svc.net t.dir_svc in
    let every_overlay f node =
      Array.iter (fun sh -> f (Shard_svc.net sh.svc) node) t.shards;
      f dir_net node
    in
    {
      Rsmr_iface.Overlay.fault =
        (function
          | Rsmr_iface.Overlay.Crash n -> every_overlay Network.crash n
          | Rsmr_iface.Overlay.Recover n -> every_overlay Network.recover n
          | Rsmr_iface.Overlay.Partition groups ->
            Network.partition dir_net groups
          | Rsmr_iface.Overlay.Heal -> Network.heal dir_net);
      reconfigure =
        (fun ms ->
          Rsmr_iface.Overlay.reconfigure
            (Dir_svc.cluster t.dir_svc).Rsmr_iface.Cluster.control ms);
    }

  let cluster t =
    {
      Rsmr_iface.Cluster.engine = t.engine;
      add_client = (fun cid -> add_client t cid);
      submit = (fun ~client ~seq ~cmd -> submit t ~client ~seq ~cmd);
      set_on_reply = (fun h -> t.on_reply <- h);
      members = (fun () -> t.pool);
      control = control t;
      obs = t.obs;
    }

  (* Rolling cross-shard rebalance: wedge the donor shard down to
     [members \ node], wait for its new epoch to activate, then grow the
     recipient — so the node is never a voting member of both shards'
     newest configurations at once.  Non-blocking: polls on the engine
     clock; [on_done false] fires if either phase fails to activate
     within the polling budget (e.g. a quorum stays crashed). *)
  let rebalance t ~node ~from_ ~to_ ?(on_done = fun _ -> ()) () =
    let fs = t.shards.(from_) and ts = t.shards.(to_) in
    let from_members = Shard_svc.current_members fs.svc in
    if
      (not (List.exists (Node_id.equal node) from_members))
      || List.exists (Node_id.equal node)
           (Shard_svc.current_members ts.svc)
      || List.length from_members <= 1
    then on_done false
    else begin
      incr (Obs.scope_counter t.shard_sc "rebalances");
      let rec wait_past sh e0 rounds k =
        if Shard_svc.current_epoch sh.svc > e0 then k true
        else if rounds <= 0 then k false
        else
          ignore
            (Engine.schedule t.engine ~delay:0.05 (fun () ->
                 wait_past sh e0 (rounds - 1) k))
      in
      let e_from = Shard_svc.current_epoch fs.svc in
      Rsmr_iface.Overlay.reconfigure fs.ctl.Rsmr_iface.Cluster.control
        (List.filter (fun m -> not (Node_id.equal m node)) from_members);
      wait_past fs e_from 400 (fun ok ->
          if not ok then begin
            incr (Obs.scope_counter t.shard_sc "rebalance_stalled");
            on_done false
          end
          else begin
            let to_members = Shard_svc.current_members ts.svc in
            if List.exists (Node_id.equal node) to_members then on_done false
            else begin
              let e_to = Shard_svc.current_epoch ts.svc in
              Rsmr_iface.Overlay.reconfigure ts.ctl.Rsmr_iface.Cluster.control
                (to_members @ [ node ]);
              wait_past ts e_to 400 (fun ok ->
                  if not ok then incr (Obs.scope_counter t.shard_sc "rebalance_stalled")
                  else incr (Obs.scope_counter t.shard_sc "rebalances_done");
                  on_done ok)
            end
          end)
    end

  let endpoint_counter_total t key =
    Hashtbl.fold
      (fun _ r acc ->
        Array.fold_left
          (fun acc ep -> acc + Counters.get (Endpoint.counters ep) key)
          acc r.eps)
      t.clients 0

  let rec take n = function
    | [] -> []
    | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

  let create ~engine ?latency ?drop ?bandwidth ?smr_params ?options ?obs
      ?dir_members ?keyspace ~pool ~shards:initial_members () =
    if initial_members = [] then invalid_arg "Platform.create: no shards";
    let pool = List.sort_uniq Node_id.compare pool in
    List.iter
      (fun ms ->
        if ms = [] then invalid_arg "Platform.create: empty shard";
        List.iter
          (fun m ->
            if not (List.exists (Node_id.equal m) pool) then
              invalid_arg "Platform.create: shard member outside pool")
          ms)
      initial_members;
    let n = List.length initial_members in
    let keyspace =
      match keyspace with
      | Some k ->
        if Keyspace.shards k <> n then
          invalid_arg "Platform.create: keyspace/shard count mismatch";
        k
      | None -> Keyspace.ranges ~shards:n ~n_keys:100_000
    in
    let obs = match obs with Some o -> o | None -> Obs.create () in
    let opts = Option.value options ~default:Options.default in
    let dir_members =
      match dir_members with
      | Some ms ->
        if ms = [] then invalid_arg "Platform.create: empty dir_members";
        ms
      | None -> take (min 3 (List.length pool)) pool
    in
    let top = List.fold_left max 0 pool in
    let dir_svc =
      Dir_svc.create ~engine ?latency ?drop ?smr_params ~options:opts
        ~universe:pool ~obs ~members:dir_members ()
      (* The directory overlay stays unconstrained: its traffic is a
         trickle, and a shared NIC model across overlays would double-
         count each machine's budget anyway. *)
    in
    let dirc =
      Dir_client.attach ~cluster:(Dir_svc.cluster dir_svc) ~client:(top + 3) ()
    in
    let shards =
      Array.of_list
        (List.mapi
           (fun i members ->
             let svc =
               Shard_svc.create ~engine ?latency ?drop ?bandwidth ?smr_params
                 ~options:opts ~universe:pool ~obs ~members ()
             in
             {
               index = i;
               svc;
               ctl = Shard_svc.cluster svc;
               cached_epoch = 0;
               cached_members = members;
             })
           initial_members)
    in
    let t =
      {
        engine;
        obs;
        opts;
        pool;
        keyspace;
        shards;
        dir_svc;
        dirc;
        clients = Hashtbl.create 16;
        on_reply = (fun ~client:_ ~seq:_ ~rsp:_ -> ());
        shard_sc = Obs.scope ~labels:[ ("section", "shard") ] obs;
        top;
      }
    in
    (* Every configuration change a shard would report to its private
       oracle node is republished into the replicated directory; the
       newest one is also cached locally as the lookup fallback. *)
    Array.iter
      (fun sh ->
        Shard_svc.set_on_dir_update sh.svc (fun ~epoch ~members ~leader ->
            if epoch > sh.cached_epoch then begin
              sh.cached_epoch <- epoch;
              sh.cached_members <- members
            end;
            Dir_client.publish t.dirc ~name:(shard_name sh.index) ~epoch
              ~members ~leader);
        Dir_client.publish t.dirc ~name:(shard_name sh.index) ~epoch:0
          ~members:sh.cached_members ~leader:None)
      shards;
    t
end

module Core = Make_on (Rsmr_smr.Paxos_block)
module Vr = Make_on (Rsmr_smr.Vr)
