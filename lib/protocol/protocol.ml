module Strategy = Rsmr_iface.Reconfig_strategy
module Network = Rsmr_net.Network

type block = Paxos | Vr

type kind =
  | Composed of { block : block; strategy : Strategy.t }
  | Raft

type t = { name : string; aliases : string list; kind : kind }

let composed ?(aliases = []) name block strategy =
  { name; aliases; kind = Composed { block; strategy } }

let core = composed ~aliases:[ "composed" ] "core" Paxos Strategy.composed
let matchmaker = composed "matchmaker" Paxos Strategy.matchmaker
let core_vr = composed "core/vr" Vr Strategy.composed

(* Ablations are anonymous strategy records: the composed stages with one
   dial flipped — exactly what the strategy API is for. *)
let core_nospec =
  composed "core-nospec" Paxos
    { Strategy.composed with
      Strategy.name = "composed-nospec";
      handoff = `Blocking
    }

let core_noresid =
  composed "core-noresid" Paxos
    { Strategy.composed with
      Strategy.name = "composed-noresid";
      residuals = `Client_retry
    }

let stopworld =
  composed ~aliases:[ "stop-the-world" ] "stopworld" Paxos Strategy.stopworld

let raft = { name = "raft"; aliases = []; kind = Raft }

let all =
  [ core; matchmaker; core_vr; core_nospec; core_noresid; stopworld; raft ]

let crucible =
  [ core; matchmaker; stopworld; raft; core_vr;
    composed "matchmaker/vr" Vr Strategy.matchmaker;
    composed "stopworld/vr" Vr Strategy.stopworld ]

let find name =
  List.find_opt
    (fun p -> String.equal p.name name || List.mem name p.aliases)
    (all @ crucible)

let strategy_name p =
  match p.kind with
  | Composed { strategy; _ } -> strategy.Strategy.name
  | Raft -> "raft"

module Make (Sm : Rsmr_app.State_machine.S) = struct
  module Paxos_svc = Rsmr_core.Service.Make (Sm)
  module Vr_svc = Rsmr_core.Service.Make_on (Rsmr_smr.Vr) (Sm)
  module Raft_svc = Rsmr_baselines.Raft.Make (Sm)

  let service : block -> (module Rsmr_core.Service.S with type app_state = Sm.t)
      = function
    | Paxos -> (module Paxos_svc)
    | Vr -> (module Vr_svc)

  type stack = {
    cluster : Rsmr_iface.Cluster.t;
    leader : unit -> Rsmr_net.Node_id.t option;
    epoch_stats : Rsmr_net.Node_id.t -> Rsmr_core.Service.epoch_stat list;
    service_ids : Rsmr_net.Node_id.t list;
    set_link : src:int -> dst:int -> drop:float -> unit;
    clear_links : unit -> unit;
    set_duplicate : float -> unit;
    set_drop : float -> unit;
    app_state : Rsmr_net.Node_id.t -> Sm.t option;
  }

  (* The admin client id is allocated right above the directory id
     (Rsmr_core.Front's convention, so the same under raft). *)
  let stack net ~cluster ~leader ~epoch_stats ~dir ~app_state =
    {
      cluster;
      leader;
      epoch_stats;
      service_ids = [ dir; dir + 1 ];
      set_link =
        (fun ~src ~dst ~drop -> Network.set_link_fault net ~src ~dst ~drop);
      clear_links = (fun () -> Network.clear_link_faults net);
      set_duplicate = (fun p -> Network.set_duplicate net p);
      set_drop = (fun p -> Network.set_drop net p);
      app_state;
    }

  let create ~engine ?latency ?drop ?bandwidth ?smr_params ?mutation p ~members
      ~universe =
    match p.kind with
    | Composed { block; strategy } ->
      let (module S) = service block in
      let options =
        { Rsmr_core.Options.default with Rsmr_core.Options.strategy; mutation }
      in
      let svc =
        S.create ~engine ?latency ?drop ?bandwidth ?smr_params ~options
          ~universe ~members ()
      in
      stack (S.net svc) ~cluster:(S.cluster svc)
        ~leader:(fun () -> S.current_leader svc)
        ~epoch_stats:(S.epoch_stats svc) ~dir:(S.directory_id svc)
        ~app_state:(S.app_state svc)
    | Raft ->
      let svc =
        Raft_svc.create ~engine ?latency ?drop ?bandwidth ?params:smr_params
          ~universe ~members ()
      in
      stack (Raft_svc.net svc) ~cluster:(Raft_svc.cluster svc)
        ~leader:(fun () -> Raft_svc.leader svc)
        ~epoch_stats:(fun _ -> [])
        ~dir:(Raft_svc.directory_id svc) ~app_state:(Raft_svc.app_state svc)
end
