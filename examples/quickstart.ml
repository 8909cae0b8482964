(* Quickstart: a replicated counter that survives a full change of its
   replica set.

     dune exec examples/quickstart.exe

   Walks through the whole public API surface: build a service over a
   simulated network, attach a client, run commands, reconfigure, and
   verify the state crossed the configuration change. *)

module Engine = Rsmr_sim.Engine
module Counter = Rsmr_app.Counter
module Service = Rsmr_core.Service.Make (Rsmr_app.Counter)

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n")

let () =
  step "1. Create a deterministic simulation and a 3-replica service";
  let engine = Engine.create ~seed:2024 () in
  (* [universe] lists every node that may ever host a replica; nodes 3-5
     start as idle spares. *)
  let service =
    Service.create ~engine ~members:[ 0; 1; 2 ] ~universe:[ 0; 1; 2; 3; 4; 5 ] ()
  in
  let cluster = Service.cluster service in

  step "2. Attach a client and collect replies";
  let client = 100 in
  cluster.Rsmr_iface.Cluster.add_client client;
  let replies = Hashtbl.create 8 in
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client:_ ~seq ~rsp ->
      Hashtbl.replace replies seq (Counter.decode_response rsp));
  let submit seq cmd =
    cluster.Rsmr_iface.Cluster.submit ~client ~seq
      ~cmd:(Counter.encode_command cmd)
  in
  let await seq =
    let rec wait horizon =
      Engine.run ~until:horizon engine;
      match Hashtbl.find_opt replies seq with
      | Some (Counter.Current v) -> v
      | None -> wait (horizon +. 0.1)
    in
    wait (Engine.now engine +. 0.1)
  in

  step "3. Run some commands through the replicated counter";
  submit 1 (Counter.Incr 40);
  Printf.printf "   incr 40 -> %d\n" (await 1);
  submit 2 (Counter.Incr 2);
  Printf.printf "   incr 2  -> %d\n" (await 2);

  step "4. Replace the entire fleet: {0,1,2} -> {3,4,5}";
  Printf.printf "   epoch before: %d, members: %s\n"
    (Service.current_epoch service)
    (String.concat "," (List.map string_of_int (Service.current_members service)));
  Rsmr_iface.Overlay.reconfigure cluster.Rsmr_iface.Cluster.control [ 3; 4; 5 ];
  let rec wait_epoch horizon =
    Engine.run ~until:horizon engine;
    if Service.current_epoch service < 1 then wait_epoch (horizon +. 0.1)
  in
  wait_epoch (Engine.now engine +. 0.1);
  Printf.printf "   epoch after:  %d, members: %s\n"
    (Service.current_epoch service)
    (String.concat "," (List.map string_of_int (Service.current_members service)));

  step "5. The state survived the transfer — keep counting on new replicas";
  submit 3 (Counter.Incr 0);
  Printf.printf "   read    -> %d (expected 42)\n" (await 3);
  submit 4 (Counter.Incr 58);
  Printf.printf "   incr 58 -> %d (expected 100)\n" (await 4);

  step "6. Retries are harmless: at-most-once via client sessions";
  submit 4 (Counter.Incr 58) (* duplicate of seq 4: deduplicated *);
  submit 5 Counter.Read;
  Printf.printf "   read after duplicate submit -> %d (still 100)\n" (await 5);

  let wedges =
    Rsmr_sim.Counters.get (Service.counters service) "wedges"
  in
  Printf.printf
    "\nDone: one reconfiguration (wedged %d old-instance replicas), state \
     carried over, exactly-once preserved.\n"
    wedges
