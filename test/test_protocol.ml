(* The protocol table: names resolve, the CLI list is stable, raft is the
   one native stack, and every protocol the crucible soaks builds and
   serves a command. *)

module Engine = Rsmr_sim.Engine
module Cluster = Rsmr_iface.Cluster
module Register = Rsmr_app.Register
module Protocol = Rsmr_protocol.Protocol
module Reg_protocol = Protocol.Make (Register)

let test_names_resolve () =
  List.iter
    (fun p ->
      List.iter
        (fun name ->
          match Protocol.find name with
          | Some q ->
            Alcotest.(check string) ("resolve " ^ name) p.Protocol.name
              q.Protocol.name
          | None -> Alcotest.failf "%s does not resolve" name)
        (p.Protocol.name :: p.Protocol.aliases))
    (Protocol.all @ Protocol.crucible);
  List.iter
    (fun (alias, name) ->
      Alcotest.(check (option string)) ("alias " ^ alias) (Some name)
        (Option.map (fun p -> p.Protocol.name) (Protocol.find alias)))
    [ ("composed", "core"); ("stop-the-world", "stopworld") ];
  Alcotest.(check bool) "unknown name rejected" true
    (Protocol.find "zab" = None)

let test_cli_list () =
  Alcotest.(check (list string)) "Protocol.all"
    [ "core"; "matchmaker"; "core/vr"; "core-nospec"; "core-noresid";
      "stopworld"; "raft" ]
    (List.map (fun p -> p.Protocol.name) Protocol.all)

let test_raft_is_the_only_native () =
  List.iter
    (fun p ->
      let native =
        match p.Protocol.kind with Protocol.Raft -> true | _ -> false
      in
      Alcotest.(check bool)
        (p.Protocol.name ^ " native")
        (p.Protocol.name = "raft") native)
    (Protocol.all @ Protocol.crucible);
  Alcotest.(check string) "raft's strategy name" "raft"
    (Protocol.strategy_name Protocol.raft);
  Alcotest.(check string) "core's strategy name" "composed"
    (Protocol.strategy_name Protocol.core)

let test_answers_one_command proto () =
  let engine = Engine.create ~seed:1 () in
  let { Reg_protocol.cluster; _ } =
    Reg_protocol.create ~engine proto ~members:[ 0; 1; 2 ]
      ~universe:[ 0; 1; 2; 3 ]
  in
  let reply = ref None in
  cluster.Cluster.set_on_reply (fun ~client:_ ~seq:_ ~rsp -> reply := Some rsp);
  cluster.Cluster.add_client 100;
  cluster.Cluster.submit ~client:100 ~seq:1
    ~cmd:(Register.encode_command (Register.Write 7));
  ignore
    (Engine.run_until engine ~pred:(fun () -> !reply <> None) ~deadline:10.0);
  match Option.map Register.decode_response !reply with
  | Some Register.Written -> ()
  | Some _ -> Alcotest.failf "%s: unexpected reply" proto.Protocol.name
  | None -> Alcotest.failf "%s: no reply" proto.Protocol.name

let () =
  Alcotest.run "protocol"
    [
      ( "table",
        [
          Alcotest.test_case "names and aliases resolve" `Quick
            test_names_resolve;
          Alcotest.test_case "CLI list" `Quick test_cli_list;
          Alcotest.test_case "raft is the only native" `Quick
            test_raft_is_the_only_native;
        ] );
      ( "build",
        List.map
          (fun p ->
            Alcotest.test_case (p.Protocol.name ^ " answers") `Quick
              (test_answers_one_command p))
          Protocol.crucible );
    ]
