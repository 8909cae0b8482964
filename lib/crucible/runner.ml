module Engine = Rsmr_sim.Engine
module Rng = Rsmr_sim.Rng
module Counters = Rsmr_sim.Counters
module Driver = Rsmr_workload.Driver
module History = Rsmr_checker.History
module Cluster = Rsmr_iface.Cluster
module Overlay = Rsmr_iface.Overlay
module Service = Rsmr_core.Service
module Register = Rsmr_app.Register
module Registry = Rsmr_obs.Registry
module Span = Rsmr_obs.Span
module Kv = Rsmr_app.Kv
module Counter = Rsmr_app.Counter

module Protocol = Rsmr_protocol.Protocol
module Mixed_protocol = Protocol.Make (Mixed)

type report = {
  proto : Protocol.t;
  scenario : Scenario.t;
  history : History.t;
  submitted : int;
  completed : int;
  acked_incr : int;
  quiesced : bool;
  converged : bool;
  final_members : int list;
  final_states : (int * string) list;
  final_counter : int option;
  epoch_stats : (int * Service.epoch_stat list) list;
  counters : (string * int) list;
  spans : Span.summary;
  obs : Registry.t;
  events_executed : int;
  end_time : float;
}

let first_client_id = 1000
let workload_start = 0.2
let quiesce_grace = 30.0
let settle_grace = 10.0

(* Scenario partitions name replica-side groups only; clients, directory
   and admin ride along in every group so the workload keeps flowing to
   whichever side can serve it. *)
let apply_fault (stack : Mixed_protocol.stack) ~non_replica fault =
  let control = stack.cluster.Cluster.control in
  match (fault : Scenario.fault) with
  | Scenario.Crash n -> Overlay.crash control n
  | Scenario.Recover n -> Overlay.recover control n
  | Scenario.Partition groups ->
    Overlay.partition control (List.map (fun g -> g @ non_replica) groups)
  | Scenario.Heal -> Overlay.heal control
  | Scenario.Link_fault { src; dst; drop } -> stack.set_link ~src ~dst ~drop
  | Scenario.Clear_links -> stack.clear_links ()
  | Scenario.Duplicate p -> stack.set_duplicate p
  | Scenario.Drop p -> stack.set_drop p
  | Scenario.Reconfigure target -> Overlay.reconfigure control target

(* Small value domains keep the linearizability search cheap: 8 register
   values, 3 keys × 8 values, increments of 1–3. *)
let gen_of rng =
  let keys = [| "a"; "b"; "c" |] in
  let key () = keys.(Rng.int rng (Array.length keys)) in
  let value () = Printf.sprintf "v%d" (Rng.int rng 8) in
  fun ~client:_ ~seq:_ ->
    let cmd =
      match Rng.int rng 8 with
      | 0 -> Mixed.Reg Register.Read
      | 1 -> Mixed.Reg (Register.Write (Rng.int rng 8))
      | 2 -> Mixed.Reg (Register.Cas (Rng.int rng 8, Rng.int rng 8))
      | 3 -> Mixed.Kv (Kv.Get (key ()))
      | 4 -> Mixed.Kv (Kv.Put (key (), value ()))
      | 5 -> Mixed.Kv (Kv.Append (key (), value ()))
      | 6 -> Mixed.Cnt (Counter.Incr (1 + Rng.int rng 3))
      | _ -> Mixed.Cnt Counter.Read
    in
    Mixed.encode_command cmd

let run ?mutation proto (sc : Scenario.t) =
  let engine = Engine.create ~seed:sc.Scenario.seed () in
  let stack =
    Mixed_protocol.create ~engine ?mutation proto ~members:sc.Scenario.members
      ~universe:sc.Scenario.universe
  in
  let obs = stack.cluster.Cluster.obs in
  Registry.set_meta obs "seed" (string_of_int sc.Scenario.seed);
  (* Subscribe before the workload starts so every submit is observed. *)
  let coll = Span.collect (Registry.bus obs) in
  let client_ids =
    List.init sc.Scenario.n_clients (fun i -> first_client_id + i)
  in
  let non_replica = stack.service_ids @ client_ids in
  let t_end = workload_start +. sc.Scenario.duration +. 0.05 in
  (* The fault script, offsets relative to workload start. *)
  List.iter
    (fun { Scenario.at; fault } ->
      ignore
        (Engine.at engine ~time:(workload_start +. at) (fun () ->
             apply_fault stack ~non_replica fault)))
    sc.Scenario.events;
  (* Endgame: whatever the script left broken is repaired once the issue
     window closes, so every scenario eventually quiesces and the safety
     oracles judge a settled system. *)
  let control = stack.cluster.Cluster.control in
  ignore
    (Engine.at engine ~time:t_end (fun () ->
         Overlay.heal control;
         stack.clear_links ();
         stack.set_duplicate 0.0;
         stack.set_drop 0.0;
         List.iter (fun n -> Overlay.recover control n) sc.Scenario.universe));
  let history = History.create () in
  let acked_incr = ref 0 in
  let on_event (e : Driver.event) =
    History.add history
      {
        History.client = e.Driver.ev_client;
        cmd = e.Driver.ev_cmd;
        rsp = e.Driver.ev_rsp;
        invoked = e.Driver.ev_invoked;
        replied = e.Driver.ev_replied;
      };
    match Mixed.incr_of_encoded e.Driver.ev_cmd with
    | Some n -> acked_incr := !acked_incr + n
    | None -> ()
  in
  let rng = Rng.split (Engine.rng engine) in
  let stats =
    (* window=4 keeps each client's coalescing buffer fed, so the soak
       exercises Request_batch / multi-slot proposals under every fault
       the script throws, not just the single-command path. *)
    Driver.run_closed ~cluster:stack.cluster
      ~n_clients:sc.Scenario.n_clients ~first_client_id ~gen:(gen_of rng)
      ~think:0.02 ~window:4 ~on_event ~start:workload_start
      ~duration:sc.Scenario.duration ()
  in
  (* Quiescence: past the endgame repair, every submitted command has a
     reply (clients retry forever, so a lost command shows up here). *)
  let quiesced =
    Engine.run_until engine
      ~pred:(fun () ->
        Engine.now engine > t_end
        && stats.Driver.completed >= stats.Driver.submitted)
      ~deadline:(t_end +. quiesce_grace)
    <> None
  in
  (* Convergence: all advertised members expose byte-identical application
     state, and still do half a virtual second later ({!Engine.settle}). *)
  let members_sorted () =
    List.sort_uniq Int.compare (stack.cluster.Cluster.members ())
  in
  let snapshots () =
    List.map
      (fun n -> (n, Option.map Mixed.snapshot (stack.Mixed_protocol.app_state n)))
      (members_sorted ())
  in
  let converged_now () =
    match snapshots () with
    | [] -> false
    | (_, first) :: rest -> (
      match first with
      | None -> false
      | Some s ->
        List.for_all
          (fun (_, o) -> match o with Some s' -> String.equal s s' | None -> false)
          rest)
  in
  let converged =
    quiesced
    && Engine.settle engine ~pred:converged_now ~hold:0.5
         ~deadline:(Engine.now engine +. settle_grace)
  in
  let final_members = members_sorted () in
  let final_states =
    List.filter_map
      (fun (n, o) -> Option.map (fun s -> (n, s)) o)
      (snapshots ())
  in
  let final_counter =
    match final_states with
    | (_, s) :: _ -> Some (Mixed.counter_value (Mixed.restore s))
    | [] -> None
  in
  let span_list = Span.finalize coll in
  Span.record obs span_list;
  {
    proto;
    scenario = sc;
    history;
    submitted = stats.Driver.submitted;
    completed = stats.Driver.completed;
    acked_incr = !acked_incr;
    quiesced;
    converged;
    final_members;
    final_states;
    final_counter;
    epoch_stats =
      List.map
        (fun n -> (n, stack.Mixed_protocol.epoch_stats n))
        sc.Scenario.universe;
    counters = Counters.to_list (Registry.counters obs "svc");
    spans = Span.summarize span_list;
    obs;
    events_executed = Engine.events_executed engine;
    end_time = Engine.now engine;
  }
