(* Round-trip properties for the top-level wire codecs: decode (encode m)
   must be the identity for every constructor of Rsmr_core.Wire.t and
   Rsmr_baselines.Raft_wire.t (including the nested Client_msg and
   Raft_msg payloads), and malformed input must raise Codec.Truncated.
   Since every codec now derives [size] from a counting pass over the
   same write body as [encode], size honesty — size m = |encode m| — is
   property-checked here too, as is the [tag_of_encoded] shortcut the
   network tagger uses.  Complements the rsmr-lint codec-exhaustive
   rule: lint proves every constructor appears in encode/decode, these
   tests prove the two sides agree byte-for-byte. *)

module Wire = Rsmr_core.Wire
module Envelope = Rsmr_core.Envelope
module Raft_wire = Rsmr_baselines.Raft_wire
module Raft_msg = Rsmr_baselines.Raft_msg
module Raft_log = Rsmr_baselines.Raft_log
module Client_msg = Rsmr_client.Client_msg
module Paxos_msg = Rsmr_smr.Msg
module Ballot = Rsmr_smr.Ballot
module Log = Rsmr_smr.Log
module Vr_msg = Rsmr_smr.Vr.Msg
module Session = Rsmr_core.Session
module Snapshot = Rsmr_core.Snapshot
module Kv = Rsmr_app.Kv

(* ------------------------------------------------------------ generators *)

let num = QCheck.Gen.int_bound 1_000_000
let nid = QCheck.Gen.int_range (-8) 32 (* node ids travel as zigzag *)
let nids = QCheck.Gen.(list_size (int_bound 6) nid)
let opt_nid = QCheck.Gen.option nid
let short_string = QCheck.Gen.(string_size (int_bound 32))

let kv_cmd_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Kv.Get k) short_string;
        map2 (fun k v -> Kv.Put (k, v)) short_string short_string;
        map (fun k -> Kv.Delete k) short_string;
        map3
          (fun k e v -> Kv.Cas (k, e, v))
          short_string (option short_string) short_string;
        map2 (fun k v -> Kv.Append (k, v)) short_string short_string;
      ])

let client_payload_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun c -> Client_msg.Cmd c) short_string;
        map (fun ms -> Client_msg.Change_membership ms) nids;
      ])

let client_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun seq low_water payload ->
            Client_msg.Request { seq; low_water; payload })
          num num client_payload_gen;
        map2 (fun seq rsp -> Client_msg.Reply { seq; rsp }) num short_string;
        map3
          (fun seq (leader, members) epoch ->
            Client_msg.Redirect { seq; leader; members; epoch })
          num (pair opt_nid nids) num;
        map2
          (fun low_water reqs -> Client_msg.Request_batch { low_water; reqs })
          num
          (list_size (int_bound 5) (pair num client_payload_gen));
      ])

let raft_payload_gen =
  QCheck.Gen.(
    oneof
      [
        return Raft_log.Noop;
        map3
          (fun client (seq, low_water) cmd ->
            Raft_log.App { client; seq; low_water; cmd })
          nid (pair num num) short_string;
        map (fun ms -> Raft_log.Config ms) nids;
      ])

let raft_entries_gen =
  QCheck.Gen.(
    list_size (int_bound 4)
      (map3
         (fun i term payload -> (i, { Raft_log.term; payload }))
         num num raft_payload_gen))

let raft_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun term last_index last_term ->
            Raft_msg.Request_vote { term; last_index; last_term })
          num num num;
        map2 (fun term granted -> Raft_msg.Vote { term; granted }) num bool;
        map3
          (fun term (prev_index, prev_term) (entries, commit) ->
            Raft_msg.Append { term; prev_index; prev_term; entries; commit })
          num (pair num num)
          (pair raft_entries_gen num);
        map3
          (fun term success match_index ->
            Raft_msg.Append_reply { term; success; match_index })
          num bool num;
        map3
          (fun (term, last_index, last_term) (members, offset) (data, is_last) ->
            Raft_msg.Install_snapshot
              { term; last_index; last_term; members; offset; data; is_last })
          (triple num num num) (pair nids num)
          (pair short_string bool);
        map2
          (fun term offset -> Raft_msg.Snapshot_chunk_ok { term; offset })
          num num;
        map2
          (fun term last_index -> Raft_msg.Snapshot_reply { term; last_index })
          num num;
      ])

let wire_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun epoch data -> Wire.Block { epoch; data }) num short_string;
        map (fun m -> Wire.Client m) client_msg_gen;
        map3
          (fun epoch members (prev_epoch, prev_members) ->
            Wire.Bootstrap { epoch; members; prev_epoch; prev_members })
          num nids (pair num nids);
        map (fun epoch -> Wire.Fetch_state { epoch }) num;
        map3
          (fun epoch (index, total) data ->
            Wire.State_chunk { epoch; index; total; data })
          num (pair num num) short_string;
        map (fun epoch -> Wire.Retire { epoch }) num;
        map3
          (fun epoch members leader -> Wire.Dir_update { epoch; members; leader })
          num nids opt_nid;
        return Wire.Dir_lookup;
        map3
          (fun epoch members leader -> Wire.Dir_info { epoch; members; leader })
          num nids opt_nid;
      ])

let raft_wire_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun m -> Raft_wire.Rpc m) raft_msg_gen;
        map (fun m -> Raft_wire.Client m) client_msg_gen;
        map3
          (fun epoch members leader ->
            Raft_wire.Dir_update { epoch; members; leader })
          num nids opt_nid;
        return Raft_wire.Dir_lookup;
        map3
          (fun epoch members leader ->
            Raft_wire.Dir_info { epoch; members; leader })
          num nids opt_nid;
      ])

let ballot_gen =
  QCheck.Gen.(map2 (fun round node -> { Ballot.round; node }) num nid)

let kind_gen =
  QCheck.Gen.(
    oneof [ return Log.Noop; map (fun v -> Log.Value v) short_string ])

let paxos_entries_gen =
  QCheck.Gen.(
    list_size (int_bound 4)
      (map3
         (fun i ballot kind -> (i, { Log.ballot; kind }))
         num ballot_gen kind_gen))

let paxos_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun ballot from_index -> Paxos_msg.Prepare { ballot; from_index })
          ballot_gen num;
        map3
          (fun ballot (from_index, commit_index) entries ->
            Paxos_msg.Promise { ballot; from_index; entries; commit_index })
          ballot_gen (pair num num) paxos_entries_gen;
        map2
          (fun ballot higher -> Paxos_msg.Reject { ballot; higher })
          ballot_gen ballot_gen;
        map3
          (fun ballot (index, commit_index) kind ->
            Paxos_msg.Accept { ballot; index; kind; commit_index })
          ballot_gen (pair num num) kind_gen;
        map3
          (fun ballot (from_index, commit_index) kinds ->
            Paxos_msg.Accept_multi { ballot; from_index; kinds; commit_index })
          ballot_gen (pair num num)
          (list_size (int_bound 5) kind_gen);
        map2
          (fun ballot index -> Paxos_msg.Accepted { ballot; index })
          ballot_gen num;
        map3
          (fun ballot from_index upto ->
            Paxos_msg.Accepted_multi { ballot; from_index; upto })
          ballot_gen num num;
        map2
          (fun ballot commit_index ->
            Paxos_msg.Heartbeat { ballot; commit_index })
          ballot_gen num;
        map (fun from_index -> Paxos_msg.Learn_req { from_index }) num;
        map2
          (fun entries commit_index ->
            Paxos_msg.Learn_rsp { entries; commit_index })
          (list_size (int_bound 4) (pair num kind_gen))
          num;
        map (fun value -> Paxos_msg.Submit { value }) short_string;
        map
          (fun values -> Paxos_msg.Submit_multi { values })
          (list_size (int_bound 5) short_string);
      ])

let vr_msg_gen =
  QCheck.Gen.(
    let ops = list_size (int_bound 4) short_string in
    oneof
      [
        map (fun value -> Vr_msg.Request { value }) short_string;
        map3
          (fun view (op, commit) value ->
            Vr_msg.Prepare { view; op; value; commit })
          num (pair num num) short_string;
        map2 (fun view op -> Vr_msg.Prepare_ok { view; op }) num num;
        map2 (fun view commit -> Vr_msg.Commit { view; commit }) num num;
        map (fun view -> Vr_msg.Start_view_change { view }) num;
        map3
          (fun view (last_normal, commit) log ->
            Vr_msg.Do_view_change { view; log; last_normal; commit })
          num (pair num num) ops;
        map3
          (fun view commit log -> Vr_msg.Start_view { view; log; commit })
          num num ops;
        map2 (fun view from -> Vr_msg.Get_state { view; from }) num num;
        map3
          (fun view (from, commit) ops ->
            Vr_msg.New_state { view; from; ops; commit })
          num (pair num num) ops;
        map (fun values -> Vr_msg.Request_multi { values }) ops;
        map3
          (fun view (from_op, commit) values ->
            Vr_msg.Prepare_multi { view; from_op; values; commit })
          num (pair num num) ops;
        map3
          (fun view from_op upto ->
            Vr_msg.Prepare_ok_multi { view; from_op; upto })
          num num num;
      ])

let snapshot_gen =
  QCheck.Gen.(
    map2
      (fun app sessions -> { Snapshot.app; sessions })
      short_string short_string)

(* Session.t is abstract: generate one by replaying a random trace of the
   operations that can actually produce a table, so trimmed floors and
   cached responses both appear.  Each sample replays into a fresh
   table. *)
let session_gen =
  QCheck.Gen.(
    let op =
      oneof
        [
          map3
            (fun client seq rsp -> `Record (client, seq, rsp))
            nid num short_string;
          map2 (fun client below -> `Trim (client, below)) nid num;
        ]
    in
    map
      (fun ops ->
        let t = Session.create () in
        List.iter
          (function
            | `Record (client, seq, rsp) -> Session.record t ~client ~seq ~rsp
            | `Trim (client, below) -> Session.trim t ~client ~below)
          ops;
        t)
      (list_size (int_bound 12) op))

let envelope_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun client (seq, low_water) cmd ->
            Envelope.App { client; seq; low_water; cmd })
          nid (pair num num) short_string;
        map3
          (fun client seq members ->
            Envelope.Reconfig { client; seq; members })
          nid num nids;
        return Envelope.Drain;
      ])

(* --------------------------------------- one handcrafted case per tag *)

let wire_samples =
  [
    Wire.Block { epoch = 3; data = "abc" };
    Wire.Client
      (Client_msg.Request
         { seq = 1; low_water = 0; payload = Client_msg.Cmd "set k v" });
    Wire.Client
      (Client_msg.Request
         {
           seq = 2;
           low_water = 1;
           payload = Client_msg.Change_membership [ 0; 1; 2 ];
         });
    Wire.Client
      (Client_msg.Request_batch
         {
           low_water = 1;
           reqs =
             [
               (3, Client_msg.Cmd "set a 1");
               (4, Client_msg.Cmd "set b 2");
               (5, Client_msg.Change_membership [ 1; 2; 3 ]);
             ];
         });
    Wire.Client (Client_msg.Reply { seq = 7; rsp = "" });
    Wire.Client
      (Client_msg.Redirect
         { seq = 9; leader = Some 4; members = [ 4; 5; 6 ]; epoch = 2 });
    Wire.Bootstrap
      { epoch = 2; members = [ 3; 4; 5 ]; prev_epoch = 1; prev_members = [ 0 ] };
    Wire.Fetch_state { epoch = 0 };
    Wire.State_chunk { epoch = 5; index = 1; total = 3; data = "\x00\xffbin" };
    Wire.Retire { epoch = 4 };
    Wire.Dir_update { epoch = 6; members = [ 1; 2 ]; leader = Some 2 };
    Wire.Dir_lookup;
    Wire.Dir_info { epoch = 6; members = [ 1; 2 ]; leader = None };
  ]

let raft_msg_samples =
  [
    Raft_msg.Request_vote { term = 4; last_index = 10; last_term = 3 };
    Raft_msg.Vote { term = 4; granted = true };
    Raft_msg.Append
      {
        term = 5;
        prev_index = 9;
        prev_term = 4;
        entries =
          [
            (10, { Raft_log.term = 5; payload = Raft_log.Noop });
            ( 11,
              {
                Raft_log.term = 5;
                payload =
                  Raft_log.App
                    { client = -2; seq = 3; low_water = 1; cmd = "incr" };
              } );
            (12, { Raft_log.term = 5; payload = Raft_log.Config [ 0; 1; 2 ] });
          ];
        commit = 9;
      };
    Raft_msg.Append_reply { term = 5; success = false; match_index = 8 };
    Raft_msg.Install_snapshot
      {
        term = 6;
        last_index = 20;
        last_term = 5;
        members = [ 0; 1; 2; 3 ];
        offset = 512;
        data = String.make 64 '\x7f';
        is_last = false;
      };
    Raft_msg.Snapshot_chunk_ok { term = 6; offset = 512 };
    Raft_msg.Snapshot_reply { term = 6; last_index = 20 };
  ]

let raft_wire_samples =
  List.map (fun m -> Raft_wire.Rpc m) raft_msg_samples
  @ [
      Raft_wire.Client (Client_msg.Reply { seq = 3; rsp = "ok" });
      Raft_wire.Dir_update { epoch = 1; members = [ 0; 1 ]; leader = Some 0 };
      Raft_wire.Dir_lookup;
      Raft_wire.Dir_info { epoch = 1; members = [ 0; 1 ]; leader = None };
    ]

(* ----------------------------------------------------------------- tests *)

let test_wire_samples () =
  (* every Wire tag is represented... *)
  Alcotest.(check int)
    "all 9 Wire tags covered" 9
    (List.length (List.sort_uniq compare (List.map Wire.tag wire_samples)));
  (* ...and each sample round-trips *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Format.asprintf "roundtrip %a" Wire.pp m)
        true
        (Wire.decode (Wire.encode m) = m))
    wire_samples

let test_raft_wire_samples () =
  Alcotest.(check int)
    "all 5 Raft_wire tags + 7 Raft_msg tags covered" 11
    (List.length
       (List.sort_uniq compare (List.map Raft_wire.tag raft_wire_samples)));
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("roundtrip " ^ Raft_wire.tag m)
        true
        (Raft_wire.decode (Raft_wire.encode m) = m))
    raft_wire_samples

(* The 9-byte varint of -1: eight continuation bytes, then 0x7f sets
   bit 62, the sign bit of a 63-bit int.  The writer rejects negative
   values, so readers must reject this encoding too. *)
let neg1 = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

let test_bad_input () =
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name Rsmr_app.Codec.Truncated (fun () ->
          ignore (f ())))
    [
      ("wire bad tag", fun () -> ignore (Wire.decode "\xff"));
      ("wire empty", fun () -> ignore (Wire.decode ""));
      ("raft_wire bad tag", fun () -> ignore (Raft_wire.decode "\xff"));
      ("raft_msg bad tag", fun () -> ignore (Raft_msg.decode "\x09"));
      ("client_msg bad tag", fun () -> ignore (Client_msg.decode "\x04"));
      ( "client_msg truncated batch",
        fun () ->
          let s =
            Client_msg.encode
              (Client_msg.Request_batch
                 { low_water = 0; reqs = [ (1, Client_msg.Cmd "payload") ] })
          in
          ignore (Client_msg.decode (String.sub s 0 (String.length s - 2))) );
      ( "wire truncated block",
        fun () ->
          let s = Wire.encode (Wire.Block { epoch = 1; data = "abcdef" }) in
          ignore (Wire.decode (String.sub s 0 (String.length s - 3))) );
      ( "varint negative",
        fun () -> ignore (Rsmr_app.Codec.Reader.(varint (of_string neg1))) );
      ( "varint past max_int on the ninth byte",
        fun () ->
          ignore
            (Rsmr_app.Codec.Reader.(
               varint (of_string "\x80\x80\x80\x80\x80\x80\x80\x80\x40"))) );
      ( "paxos submit_multi negative list length",
        fun () -> ignore (Paxos_msg.decode ("\x0b" ^ neg1)) );
      ( "wire bootstrap negative list length",
        fun () -> ignore (Wire.decode ("\x02\x01" ^ neg1)) );
      ( "wire state_chunk negative index",
        fun () -> ignore (Wire.decode ("\x04\x01" ^ neg1 ^ "\x01\x00")) );
      ("session negative client count", fun () -> ignore (Session.decode neg1));
      ( "string length of max_int after a consumed byte",
        fun () ->
          let open Rsmr_app.Codec.Reader in
          let r = of_string ("\x01" ^ "\xff\xff\xff\xff\xff\xff\xff\xff\x3f") in
          ignore (u8 r);
          ignore (string r) );
    ]

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"Wire decode∘encode = id" ~count:1000
    (QCheck.make wire_gen) (fun m -> Wire.decode (Wire.encode m) = m)

let prop_raft_wire_roundtrip =
  QCheck.Test.make ~name:"Raft_wire decode∘encode = id" ~count:1000
    (QCheck.make raft_wire_gen) (fun m ->
      Raft_wire.decode (Raft_wire.encode m) = m)

let prop_client_msg_roundtrip =
  QCheck.Test.make ~name:"Client_msg decode∘encode = id" ~count:1000
    (QCheck.make client_msg_gen) (fun m ->
      Client_msg.decode (Client_msg.encode m) = m)

let prop_raft_msg_roundtrip =
  QCheck.Test.make ~name:"Raft_msg decode∘encode = id" ~count:1000
    (QCheck.make raft_msg_gen) (fun m ->
      Raft_msg.decode (Raft_msg.encode m) = m)

(* --- size honesty: the counting sink must agree with the buffer sink --- *)

let prop_wire_size =
  QCheck.Test.make ~name:"Wire size = |encode|" ~count:1000
    (QCheck.make wire_gen) (fun m ->
      Wire.size m = String.length (Wire.encode m))

let prop_paxos_msg_size =
  QCheck.Test.make ~name:"Paxos Msg size = |encode|" ~count:1000
    (QCheck.make paxos_msg_gen) (fun m ->
      Paxos_msg.size m = String.length (Paxos_msg.encode m)
      && Paxos_msg.decode (Paxos_msg.encode m) = m)

let prop_vr_msg_size =
  QCheck.Test.make ~name:"Vr Msg size = |encode|" ~count:1000
    (QCheck.make vr_msg_gen) (fun m ->
      Vr_msg.size m = String.length (Vr_msg.encode m))

let prop_raft_wire_size =
  QCheck.Test.make ~name:"Raft_wire size = |encode|" ~count:1000
    (QCheck.make raft_wire_gen) (fun m ->
      Raft_wire.size m = String.length (Raft_wire.encode m))

(* A command reader that takes the command frame's bytes as they are,
   so an envelope with any command bytes round-trips. *)
let raw_command r =
  let b = Buffer.create 16 in
  while not (Rsmr_app.Codec.Reader.at_end r) do
    Buffer.add_char b (Char.chr (Rsmr_app.Codec.Reader.u8 r))
  done;
  Buffer.contents b

let decode_raw_envelope = Envelope.decode raw_command

let prop_envelope_size =
  QCheck.Test.make ~name:"Envelope size = |encode|" ~count:1000
    (QCheck.make envelope_gen) (fun m ->
      Envelope.size m = String.length (Envelope.encode m)
      && decode_raw_envelope (Envelope.encode m) = m)

(* The command is read inside the envelope's reader, confined to its
   frame: the result is [decode_command] of the frame's bytes, even when
   the frame holds bytes past the command, which are skipped unread. *)
let prop_envelope_reads_command =
  QCheck.Test.make ~name:"Envelope decode reads the command in its frame"
    ~count:500
    (QCheck.make QCheck.Gen.(triple nid kv_cmd_gen (string_size (int_bound 4))))
    (fun (client, c, junk) ->
      let bytes = Kv.encode_command c ^ junk in
      let s =
        Envelope.encode
          (Envelope.App { client; seq = 3; low_water = 1; cmd = bytes })
      in
      match Envelope.decode Kv.read_command s with
      | Envelope.App { cmd; client = c'; _ } ->
        c' = client && cmd = c && cmd = Kv.decode_command bytes
      | Envelope.Reconfig _ | Envelope.Drain -> false)

(* --- state-transfer codecs: snapshot payloads and session tables --- *)

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"Snapshot decode∘encode = id" ~count:1000
    (QCheck.make snapshot_gen) (fun s ->
      Snapshot.decode (Snapshot.encode s) = s)

(* Session.t is abstract, so round-tripping is checked on the canonical
   form: decoding and re-encoding must reproduce the bytes, and the
   table size must survive the trip. *)
let prop_session_roundtrip =
  QCheck.Test.make ~name:"Session encode∘decode∘encode = encode" ~count:1000
    (QCheck.make session_gen) (fun t ->
      let s = Session.encode t in
      let t' = Session.decode s in
      Session.encode t' = s && Session.cardinal t' = Session.cardinal t)

(* --- truncation fuzz: every strict prefix of a valid encoding must be
   rejected with Codec.Truncated — never Invalid_argument, Failure, a
   Match_failure from a tag dispatch, or a silently wrong value.  The
   prefix length is drawn from the generated integer so shrinking finds
   the shortest failing cut. *)

let prefix_prop name gen encode decode =
  QCheck.Test.make ~name:(name ^ " strict prefix raises Truncated")
    ~count:1000
    (QCheck.make QCheck.Gen.(pair gen (int_bound 1_000_000)))
    (fun (m, k) ->
      let s = encode m in
      String.length s = 0
      ||
      let cut = k mod String.length s in
      match decode (String.sub s 0 cut) with
      | _ -> false
      | exception Rsmr_app.Codec.Truncated -> true)

(* --- garbage fuzz: arbitrary bytes either decode to a value the writer
   can re-encode, or raise Codec.Truncated.  Uniform random bytes almost
   never form the long varints where overflow bugs hide, so the input is
   a tag byte followed by a mix of raw bytes, one-byte varints and
   nine-byte varints whose top bits are random. *)

let garbage_gen =
  let open QCheck.Gen in
  let long_varint =
    map2
      (fun body last ->
        String.init 9 (fun i ->
            if i < 8 then Char.chr (0x80 lor (body land 0x7f)) else Char.chr last))
      (int_bound 0x7f) (int_bound 0x7f)
  in
  let token =
    frequency
      [
        (2, map (fun c -> String.make 1 c) char);
        (2, map (fun n -> String.make 1 (Char.chr n)) (int_bound 0x7f));
        (1, long_varint);
      ]
  in
  map2
    (fun tag parts -> String.make 1 (Char.chr tag) ^ String.concat "" parts)
    (int_bound 16)
    (list_size (int_range 0 8) token)

let garbage_prop name decode reencode =
  QCheck.Test.make ~name:(name ^ " garbage decodes or raises Truncated")
    ~count:2000 (QCheck.make ~print:String.escaped garbage_gen) (fun s ->
      match decode s with
      | v ->
        ignore (reencode v);
        true
      | exception Rsmr_app.Codec.Truncated -> true)

(* --- chunked state transfer: [Snapshot.chunk] and [Snapshot.of_chunks]
   against the reference model, the encoding built whole, cut and
   joined (test/snapshot_model.ml).  Parts come empty and with length
   prefixes of one, two and three bytes; chunk sizes go below a prefix's
   width, so prefixes straddle chunks. *)

let part_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (3, string_size (int_bound 40));
        (2, string_size (int_range 120 400));
        (1, string_size (int_range 16_370 16_400));
      ])

let parts_gen =
  QCheck.Gen.map2 (fun app sessions -> { Snapshot.app; sessions }) part_gen part_gen

let chunk_size_gen =
  QCheck.Gen.(
    frequency [ (3, int_range 1 4); (2, int_range 5 300); (1, int_range 301 40_000) ])

let print_parts (t : Snapshot.t) =
  Printf.sprintf "{app = %d bytes; sessions = %d bytes}" (String.length t.app)
    (String.length t.sessions)

let prop_chunk_matches_model =
  QCheck.Test.make ~name:"Snapshot.chunk = model chunk of encode" ~count:1000
    (QCheck.make
       ~print:QCheck.Print.(pair print_parts int)
       QCheck.Gen.(pair parts_gen chunk_size_gen))
    (fun (t, size) ->
      Snapshot.chunk t ~size = Snapshot_model.chunk (Snapshot.encode t) ~size)

(* [s] cut after each of [sizes] bytes in turn (a zero makes an empty
   chunk), the rest as a last chunk. *)
let cut s sizes =
  let n = String.length s in
  let rec go off acc = function
    | k :: rest when off + k <= n -> go (off + k) (String.sub s off k :: acc) rest
    | _ :: _ | [] -> List.rev (String.sub s off (n - off) :: acc)
  in
  go 0 [] sizes

let outcome decode chunks =
  match decode chunks with
  | v -> Some v
  | exception Rsmr_app.Codec.Truncated -> None

let model_of_chunks chunks = Snapshot.decode (Snapshot_model.assemble chunks)

(* Valid encodings, their prefixes, encodings with junk after them, and
   garbage, in chunks of random sizes. *)
let chunks_gen =
  QCheck.Gen.(
    let encoded = map Snapshot.encode parts_gen in
    let stream =
      frequency
        [
          (2, encoded);
          ( 2,
            map2
              (fun s k -> String.sub s 0 (k mod (String.length s + 1)))
              encoded nat );
          (1, map2 ( ^ ) encoded garbage_gen);
          (2, garbage_gen);
        ]
    in
    map2 cut stream (list_size (int_bound 12) (int_bound 20)))

let prop_of_chunks_matches_model =
  QCheck.Test.make ~name:"Snapshot.of_chunks = model decode of assemble"
    ~count:2000
    (QCheck.make
       ~print:QCheck.Print.(list (fun s -> String.escaped s))
       chunks_gen)
    (fun chunks -> outcome Snapshot.of_chunks chunks = outcome model_of_chunks chunks)

(* A forged length prefix of 2^62 - 1, straddling two chunks, is refused
   before anything is allocated for the part it announces. *)
let test_of_chunks_forged_prefix () =
  let chunks = [ "\xff\xff\xff"; "\xff\xff\xff\xff\xff\x3f"; "abc" ] in
  (* Minor and major words: a minor collection at each end makes
     [Gc.counters] exact. *)
  let allocated () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  let raised =
    match Snapshot.of_chunks chunks with
    | _ -> false
    | exception Rsmr_app.Codec.Truncated -> true
  in
  let words = allocated () -. before in
  Alcotest.(check bool) "raises Truncated" true raised;
  Alcotest.(check bool)
    (Printf.sprintf "allocates O(1) words (%.0f)" words)
    true (words <= 64.)

(* The reader under the Snapshot fuzz groups: an encoding in 3-byte
   chunks, so most length prefixes straddle two. *)
let of_3_byte_chunks s = Snapshot.of_chunks (Snapshot_model.chunk s ~size:3)

let garbage_fuzz =
  [
    garbage_prop "Wire" Wire.decode Wire.encode;
    garbage_prop "Raft_wire" Raft_wire.decode Raft_wire.encode;
    garbage_prop "Raft_msg" Raft_msg.decode Raft_msg.encode;
    garbage_prop "Client_msg" Client_msg.decode Client_msg.encode;
    garbage_prop "Paxos Msg" Paxos_msg.decode Paxos_msg.encode;
    garbage_prop "Vr Msg" Vr_msg.decode Vr_msg.encode;
    garbage_prop "Envelope" decode_raw_envelope Envelope.encode;
    garbage_prop "Snapshot" Snapshot.decode Snapshot.encode;
    garbage_prop "Snapshot chunks" of_3_byte_chunks Snapshot.encode;
    garbage_prop "Session" Session.decode Session.encode;
  ]

let truncation_fuzz =
  [
    prefix_prop "Wire" wire_gen Wire.encode Wire.decode;
    prefix_prop "Raft_wire" raft_wire_gen Raft_wire.encode Raft_wire.decode;
    prefix_prop "Raft_msg" raft_msg_gen Raft_msg.encode Raft_msg.decode;
    prefix_prop "Client_msg" client_msg_gen Client_msg.encode Client_msg.decode;
    prefix_prop "Paxos Msg" paxos_msg_gen Paxos_msg.encode Paxos_msg.decode;
    prefix_prop "Vr Msg" vr_msg_gen Vr_msg.encode Vr_msg.decode;
    prefix_prop "Envelope" envelope_gen Envelope.encode decode_raw_envelope;
    prefix_prop "Snapshot" snapshot_gen Snapshot.encode Snapshot.decode;
    prefix_prop "Snapshot chunks" snapshot_gen Snapshot.encode of_3_byte_chunks;
    prefix_prop "Session" session_gen Session.encode Session.decode;
  ]

(* --- tag_of_encoded: first-byte classification agrees with decode --- *)

(* [tag] is [tag_of_encoded] of the encoding, so one table serves both;
   classifying the raw bytes must agree with decoding them and
   classifying the result, i.e. the tag_of_encoded shortcut can never
   disagree with the full decoder about which constructor a message
   is. *)
let prop_paxos_tag_semantic =
  QCheck.Test.make ~name:"Paxos Msg tag∘decode = tag_of_encoded" ~count:500
    (QCheck.make paxos_msg_gen) (fun m ->
      let s = Paxos_msg.encode m in
      Paxos_msg.tag (Paxos_msg.decode s) = Paxos_msg.tag_of_encoded s)

let prop_vr_tag_semantic =
  QCheck.Test.make ~name:"Vr Msg tag∘decode = tag_of_encoded" ~count:500
    (QCheck.make vr_msg_gen) (fun m ->
      let s = Vr_msg.encode m in
      Vr_msg.tag (Vr_msg.decode s) = Vr_msg.tag_of_encoded s)

(* --- byte compatibility with the Int64 reference primitives --- *)

module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

(* The varint and zigzag primitives as they were before the codec became
   allocation-free: a Buffer sink, a local [go] closure per call, and
   zigzag computed over Int64.  Every byte on the wire was produced by
   these, so the native-int primitives must agree with them exactly. *)
module Int64_ref = struct
  let varint b v =
    let rec go v =
      if v < 0x80 then Buffer.add_uint8 b v
      else begin
        Buffer.add_uint8 b (0x80 lor (v land 0x7F));
        go (v lsr 7)
      end
    in
    go v

  let zigzag b v =
    let z =
      Int64.logxor
        (Int64.shift_left (Int64.of_int v) 1)
        (Int64.shift_right (Int64.of_int v) 63)
    in
    let rec go z =
      let low = Int64.to_int (Int64.logand z 0x7FL) in
      let rest = Int64.shift_right_logical z 7 in
      if Int64.equal rest 0L then Buffer.add_uint8 b low
      else begin
        Buffer.add_uint8 b (0x80 lor low);
        go rest
      end
    in
    go z

  let encode write v =
    let b = Buffer.create 16 in
    write b v;
    Buffer.contents b

  (* Readers over a string and a position, returning the value and the
     position after it. *)
  let u8 s pos =
    if pos >= String.length s then raise Rsmr_app.Codec.Truncated;
    Char.code s.[pos]

  let read_varint s =
    let rec go pos shift acc =
      if shift > 62 then raise Rsmr_app.Codec.Truncated;
      let b = u8 s pos in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 <> 0 then go (pos + 1) (shift + 7) acc
      else if acc < 0 then raise Rsmr_app.Codec.Truncated
      else (acc, pos + 1)
    in
    go 0 0 0

  let read_zigzag s =
    let rec go pos shift acc =
      if shift > 70 then raise Rsmr_app.Codec.Truncated;
      let b = u8 s pos in
      let acc =
        Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7F)) shift)
      in
      if b land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
    in
    let z, pos = go 0 0 0L in
    ( Int64.to_int
        (Int64.logxor
           (Int64.shift_right_logical z 1)
           (Int64.neg (Int64.logand z 1L))),
      pos )
end

(* 0, +-1, the ends of the int range, and both sides of every 7-bit group
   boundary of the varint (2^7k) and of the zigzag (2^(7k-1), where [2m +
   sign] crosses 2^7k), negated too. *)
let edge_ints =
  let around b = [ b - 1; b; b + 1; -b + 1; -b; -b - 1 ] in
  let bounds =
    List.concat_map
      (fun k -> [ 1 lsl (7 * k); 1 lsl ((7 * k) - 1) ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  [ 0; 1; -1; min_int; max_int; min_int + 1; max_int - 1 ]
  @ List.concat_map around bounds

let int_gen =
  QCheck.Gen.(
    oneof
      [
        int;
        int_bound 1_000_000;
        map (fun n -> -n) (int_bound 1_000_000);
        oneofl edge_ints;
        (* a random width: every group count gets drawn *)
        map2 (fun bits v -> v asr bits) (int_bound 62) int;
      ])

let prop_writers_match =
  QCheck.Test.make ~name:"varint/zigzag writers = Int64 reference" ~count:5000
    (QCheck.make ~print:string_of_int int_gen) (fun v ->
      W.to_string W.zigzag v = Int64_ref.encode Int64_ref.zigzag v
      && W.size W.zigzag v = String.length (W.to_string W.zigzag v)
      && (v < 0
         || W.to_string W.varint v = Int64_ref.encode Int64_ref.varint v
            && W.size W.varint v = String.length (W.to_string W.varint v)))

let test_edge_ints () =
  List.iter
    (fun v ->
      let name = string_of_int v in
      Alcotest.(check string)
        ("zigzag " ^ name)
        (Int64_ref.encode Int64_ref.zigzag v)
        (W.to_string W.zigzag v);
      Alcotest.(check int)
        ("zigzag roundtrip " ^ name)
        v
        (R.zigzag (R.of_string (W.to_string W.zigzag v)));
      if v >= 0 then begin
        Alcotest.(check string)
          ("varint " ^ name)
          (Int64_ref.encode Int64_ref.varint v)
          (W.to_string W.varint v);
        Alcotest.(check int)
          ("varint roundtrip " ^ name)
          v
          (R.varint (R.of_string (W.to_string W.varint v)))
      end)
    edge_ints

(* Byte strings weighted towards continuation bytes, so every group count
   up to and past the longest encoding gets drawn. *)
let groups_gen =
  QCheck.Gen.(
    let byte =
      frequency
        [ (3, int_range 0x80 0xFF); (1, int_bound 0x7F); (1, oneofl [ 0; 0x7F; 0x80; 0xFF; 0x40; 0xC0 ]) ]
    in
    map
      (fun bytes -> String.concat "" (List.map (fun b -> String.make 1 (Char.chr b)) bytes))
      (list_size (int_bound 13) byte))

(* The value, and the bytes left after it. *)
let read_new read s =
  let r = R.of_string s in
  match read r with
  | v ->
    let rest = Buffer.create 4 in
    while not (R.at_end r) do
      Buffer.add_uint8 rest (R.u8 r)
    done;
    Ok (v, Buffer.contents rest)
  | exception Rsmr_app.Codec.Truncated -> Error ()

let read_ref read s =
  match read s with
  | v, pos -> Ok (v, String.sub s pos (String.length s - pos))
  | exception Rsmr_app.Codec.Truncated -> Error ()

let prop_varint_reader_matches =
  QCheck.Test.make ~name:"varint reader = Int64 reference" ~count:5000
    (QCheck.make ~print:String.escaped groups_gen) (fun s ->
      read_new R.varint s = read_ref Int64_ref.read_varint s)

(* The reference zigzag reader also takes a tenth and an eleventh byte,
   which no writer produces (nine bytes hold any 63-bit zigzag), and
   folds them in with shifts of 63 and 70 bits, the latter unspecified
   for Int64.  The native reader refuses such input with Truncated; on
   everything else the two agree. *)
let prop_zigzag_reader_matches =
  QCheck.Test.make ~name:"zigzag reader = Int64 reference" ~count:5000
    (QCheck.make ~print:String.escaped groups_gen) (fun s ->
      match read_ref Int64_ref.read_zigzag s with
      | Ok (_, rest) when String.length s - String.length rest > 9 ->
        read_new R.zigzag s = Error ()
      | expected -> read_new R.zigzag s = expected)

(* [nested] writes its body once, after a one-byte prefix slot, and moves
   it up when the length needs a wider prefix: bodies on both sides of
   every prefix width must come out as [string] of the separate
   encoding, on a growing writer and an exact-size one. *)
let test_nested_widths () =
  let body w n =
    for i = 1 to n do
      W.u8 w i
    done
  in
  let nested w n =
    W.u8 w 7;
    W.nested w body n;
    W.varint w n
  in
  let reference w n =
    W.u8 w 7;
    W.string w (W.to_string body n);
    W.varint w n
  in
  List.iter
    (fun n ->
      let expected = W.to_string reference n in
      let grown =
        let w = W.create ~size_hint:1 () in
        nested w n;
        W.contents w
      in
      Alcotest.(check string) (Printf.sprintf "exact, body %d" n) expected
        (W.to_string nested n);
      Alcotest.(check string) (Printf.sprintf "growing, body %d" n) expected
        grown;
      Alcotest.(check int) (Printf.sprintf "size, body %d" n)
        (String.length expected) (W.size nested n))
    [ 0; 1; 127; 128; 129; 16383; 16384; 16385 ]

(* --- allocation: the codec kernel allocates nothing per primitive --- *)

(* Minor-heap words per call of [f], over many calls.  Gc.minor_words is
   unboxed in native code, so the probe itself allocates nothing. *)
let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let n = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let prop_size_allocates_nothing name gen size =
  QCheck.Test.make ~name:(name ^ " size allocates nothing") ~count:300
    (QCheck.make gen) (fun m -> words_per_call (fun () -> size m) = 0.)

let size_alloc =
  [
    prop_size_allocates_nothing "Wire" wire_gen Wire.size;
    prop_size_allocates_nothing "Envelope" envelope_gen Envelope.size;
    prop_size_allocates_nothing "Paxos Msg" paxos_msg_gen Paxos_msg.size;
  ]

let test_reader_allocates_nothing () =
  let n = 1000 in
  let values = List.init n (fun i -> (i * 7919) - (n * 3000)) in
  let encoded =
    W.to_string
      (fun w vs ->
        List.iter
          (fun v ->
            W.varint w (abs v);
            W.zigzag w v)
          vs)
      values
  in
  let r = R.of_string encoded in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (R.varint r));
    ignore (Sys.opaque_identity (R.zigzag r))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "all read" true (R.at_end r);
  Alcotest.(check (float 0.)) "words for 1000 varint+zigzag reads" 0. words

(* A string of [n] bytes is a header and [(n + 8) / 8] words. *)
let string_words n = 1 + ((n + 8) / 8)

(* [to_string] allocates the result and nothing else: both passes write
   through shared sinks, so there is no writer record, no growing buffer
   and no copy out of it. *)
let prop_envelope_encode_alloc =
  QCheck.Test.make ~name:"Envelope encode allocates its result alone"
    ~count:300 (QCheck.make envelope_gen) (fun m ->
      let words = words_per_call (fun () -> Envelope.encode m) in
      words = float_of_int (string_words (Envelope.size m)))

(* A body may encode an opaque payload with [to_string] itself: the inner
   pass saves and restores the one it interrupts, in the counting pass and
   in the writing pass alike, at any depth and any position. *)
let test_nested_to_string () =
  let inner w (k, s) =
    W.varint w k;
    W.string w s
  in
  let middle w (k, s) =
    W.string w (W.to_string inner (k, s));
    W.u8 w 0xAB;
    W.string w (W.to_string inner (k + 1, s ^ s))
  in
  let outer w (k, s) =
    W.varint w (k * 1000);
    W.string w (W.to_string middle (k, s));
    W.zigzag w (-k);
    W.string w (W.to_string inner (k, s))
  in
  (* The same bytes through growable writers, each drained before the
     next starts. *)
  let by_hand k s =
    let enc f v =
      let w = W.create () in
      f w v;
      W.contents w
    in
    let inner_bytes k s = enc inner (k, s) in
    let middle_bytes =
      enc
        (fun w () ->
          W.string w (inner_bytes k s);
          W.u8 w 0xAB;
          W.string w (inner_bytes (k + 1) (s ^ s)))
        ()
    in
    enc
      (fun w () ->
        W.varint w (k * 1000);
        W.string w middle_bytes;
        W.zigzag w (-k);
        W.string w (inner_bytes k s))
      ()
  in
  List.iter
    (fun (k, s) ->
      let expected = by_hand k s in
      Alcotest.(check string)
        (Printf.sprintf "bytes (%d, %d-byte payload)" k (String.length s))
        expected
        (W.to_string outer (k, s));
      Alcotest.(check int) "size" (String.length expected)
        (W.size outer (k, s)))
    [ (0, ""); (3, "payload"); (70_000, String.make 200 'x') ]

let () =
  Alcotest.run "wire"
    [
      ( "core-wire",
        [
          Alcotest.test_case "per-constructor samples" `Quick test_wire_samples;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_client_msg_roundtrip;
        ] );
      ( "raft-wire",
        [
          Alcotest.test_case "per-constructor samples" `Quick
            test_raft_wire_samples;
          QCheck_alcotest.to_alcotest prop_raft_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_raft_msg_roundtrip;
        ] );
      ( "size-honesty",
        [
          QCheck_alcotest.to_alcotest prop_wire_size;
          QCheck_alcotest.to_alcotest prop_paxos_msg_size;
          QCheck_alcotest.to_alcotest prop_vr_msg_size;
          QCheck_alcotest.to_alcotest prop_raft_wire_size;
          QCheck_alcotest.to_alcotest prop_envelope_size;
          QCheck_alcotest.to_alcotest prop_envelope_reads_command;
        ] );
      ( "state-transfer",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest prop_session_roundtrip;
          QCheck_alcotest.to_alcotest prop_chunk_matches_model;
          QCheck_alcotest.to_alcotest prop_of_chunks_matches_model;
          Alcotest.test_case "forged length prefix" `Quick
            test_of_chunks_forged_prefix;
        ] );
      ( "truncation-fuzz",
        List.map QCheck_alcotest.to_alcotest truncation_fuzz );
      ("garbage-fuzz", List.map QCheck_alcotest.to_alcotest garbage_fuzz);
      ( "tag-of-encoded",
        [
          QCheck_alcotest.to_alcotest prop_paxos_tag_semantic;
          QCheck_alcotest.to_alcotest prop_vr_tag_semantic;
        ] );
      ("malformed", [ Alcotest.test_case "tagged errors" `Quick test_bad_input ]);
      ( "int64-compat",
        [
          Alcotest.test_case "edge values" `Quick test_edge_ints;
          Alcotest.test_case "nested prefix widths" `Quick test_nested_widths;
          Alcotest.test_case "nested to_string" `Quick test_nested_to_string;
          QCheck_alcotest.to_alcotest prop_writers_match;
          QCheck_alcotest.to_alcotest prop_varint_reader_matches;
          QCheck_alcotest.to_alcotest prop_zigzag_reader_matches;
        ] );
      ( "allocation",
        List.map QCheck_alcotest.to_alcotest size_alloc
        @ [
            Alcotest.test_case "reader varint/zigzag" `Quick
              test_reader_allocates_nothing;
            QCheck_alcotest.to_alcotest prop_envelope_encode_alloc;
          ] );
    ]
