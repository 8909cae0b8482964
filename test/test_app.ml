(* Tests for the codec and the state machines, including roundtrip
   properties for every command/response/snapshot encoding. *)

module Codec = Rsmr_app.Codec
module Kv = Rsmr_app.Kv
module Counter = Rsmr_app.Counter
module Bank = Rsmr_app.Bank
module Register = Rsmr_app.Register

(* --- codec --- *)

let test_codec_roundtrip_primitives () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 200;
  Codec.Writer.varint w 0;
  Codec.Writer.varint w 127;
  Codec.Writer.varint w 128;
  Codec.Writer.varint w 300_000_000;
  Codec.Writer.zigzag w (-42);
  Codec.Writer.zigzag w 42;
  Codec.Writer.bool w true;
  Codec.Writer.float w 3.14159;
  Codec.Writer.string w "hello";
  Codec.Writer.option w Codec.Writer.string None;
  Codec.Writer.option w Codec.Writer.string (Some "x");
  Codec.Writer.list w Codec.Writer.varint [ 1; 2; 3 ];
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 200 (Codec.Reader.u8 r);
  Alcotest.(check int) "varint 0" 0 (Codec.Reader.varint r);
  Alcotest.(check int) "varint 127" 127 (Codec.Reader.varint r);
  Alcotest.(check int) "varint 128" 128 (Codec.Reader.varint r);
  Alcotest.(check int) "varint big" 300_000_000 (Codec.Reader.varint r);
  Alcotest.(check int) "zigzag neg" (-42) (Codec.Reader.zigzag r);
  Alcotest.(check int) "zigzag pos" 42 (Codec.Reader.zigzag r);
  Alcotest.(check bool) "bool" true (Codec.Reader.bool r);
  Alcotest.(check (float 1e-12)) "float" 3.14159 (Codec.Reader.float r);
  Alcotest.(check string) "string" "hello" (Codec.Reader.string r);
  Alcotest.(check (option string)) "none" None
    (Codec.Reader.option r Codec.Reader.string);
  Alcotest.(check (option string)) "some" (Some "x")
    (Codec.Reader.option r Codec.Reader.string);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
    (Codec.Reader.list r Codec.Reader.varint);
  Alcotest.(check bool) "at end" true (Codec.Reader.at_end r)

let test_codec_truncated () =
  let r = Codec.Reader.of_string "\x05ab" in
  Alcotest.check_raises "short string raises" Codec.Truncated (fun () ->
      ignore (Codec.Reader.string r))

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun n ->
      let w = Codec.Writer.create () in
      Codec.Writer.varint w n;
      Codec.Reader.varint (Codec.Reader.of_string (Codec.Writer.contents w)) = n)

let prop_zigzag_roundtrip =
  QCheck.Test.make ~name:"zigzag roundtrip" ~count:500 QCheck.int (fun n ->
      let w = Codec.Writer.create () in
      Codec.Writer.zigzag w n;
      Codec.Reader.zigzag (Codec.Reader.of_string (Codec.Writer.contents w)) = n)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:200 QCheck.string (fun s ->
      let w = Codec.Writer.create () in
      Codec.Writer.string w s;
      Codec.Reader.string (Codec.Reader.of_string (Codec.Writer.contents w)) = s)

(* --- kv --- *)

let test_kv_semantics () =
  let t = Kv.init () in
  let t, r = Kv.apply t (Kv.Get "a") in
  Alcotest.(check bool) "missing get" true (r = Kv.Value None);
  let t, r = Kv.apply t (Kv.Put ("a", "1")) in
  Alcotest.(check bool) "put ok" true (r = Kv.Ok);
  let t, r = Kv.apply t (Kv.Get "a") in
  Alcotest.(check bool) "get after put" true (r = Kv.Value (Some "1"));
  let t, r = Kv.apply t (Kv.Cas ("a", Some "1", "2")) in
  Alcotest.(check bool) "cas success" true (r = Kv.Cas_result true);
  let t, r = Kv.apply t (Kv.Cas ("a", Some "1", "3")) in
  Alcotest.(check bool) "cas failure" true (r = Kv.Cas_result false);
  let t, _ = Kv.apply t (Kv.Append ("a", "x")) in
  let t, r = Kv.apply t (Kv.Get "a") in
  Alcotest.(check bool) "append" true (r = Kv.Value (Some "2x"));
  let t, _ = Kv.apply t (Kv.Delete "a") in
  let _, r = Kv.apply t (Kv.Get "a") in
  Alcotest.(check bool) "delete" true (r = Kv.Value None)

let test_kv_snapshot_roundtrip () =
  let t = ref (Kv.init ()) in
  for i = 0 to 99 do
    let s, _ = Kv.apply !t (Kv.Put (Printf.sprintf "k%03d" i, string_of_int i)) in
    t := s
  done;
  let restored = Kv.restore (Kv.snapshot !t) in
  Alcotest.(check int) "cardinality" 100 (Kv.cardinal restored);
  Alcotest.(check (option string)) "spot check" (Some "42")
    (Kv.find restored "k042")

let kv_command_gen =
  QCheck.Gen.(
    let key = map (Printf.sprintf "k%d") (int_bound 20) in
    let value = map (Printf.sprintf "v%d") (int_bound 1000) in
    oneof
      [
        map (fun k -> Kv.Get k) key;
        map2 (fun k v -> Kv.Put (k, v)) key value;
        map (fun k -> Kv.Delete k) key;
        map3 (fun k e v -> Kv.Cas (k, e, v)) key (option value) value;
        map2 (fun k v -> Kv.Append (k, v)) key value;
      ])

let prop_kv_command_roundtrip =
  QCheck.Test.make ~name:"kv command codec roundtrip" ~count:500
    (QCheck.make kv_command_gen) (fun c ->
      Kv.decode_command (Kv.encode_command c) = c)

let prop_kv_snapshot_roundtrip =
  QCheck.Test.make ~name:"kv snapshot roundtrip preserves state" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 50) (QCheck.make kv_command_gen))
    (fun cmds ->
      let final =
        List.fold_left (fun t c -> fst (Kv.apply t c)) (Kv.init ()) cmds
      in
      let restored = Kv.restore (Kv.snapshot final) in
      (* States agree iff every key matches; compare via snapshots, which
         list the keys in sorted order. *)
      Kv.snapshot restored = Kv.snapshot final)

let prop_kv_apply_deterministic =
  QCheck.Test.make ~name:"kv apply is deterministic" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 30) (QCheck.make kv_command_gen))
    (fun cmds ->
      let run () =
        List.fold_left
          (fun (t, acc) c ->
            let t, r = Kv.apply t c in
            (t, r :: acc))
          (Kv.init (), [])
          cmds
      in
      let _, r1 = run () and _, r2 = run () in
      r1 = r2)

(* --- kv against the Map model --- *)

module Model = Kv_model

(* The keys [kv_command_gen] draws from. *)
let gen_keys = List.init 21 (Printf.sprintf "k%d")

(* One version of the store and of the model agree: every key of the
   generator's key space, the key count and the snapshot bytes. *)
let agrees t m =
  List.for_all (fun k -> Kv.find t k = Model.find m k) gen_keys
  && Kv.cardinal t = Model.cardinal m
  && String.equal (Kv.snapshot t) (Model.snapshot m)

(* A random version tree: each step applies a command to a random earlier
   version (rerooting the table to it), and the response must be the
   model's.  Afterwards every version, visited in a second random order,
   must still equal its model. *)
let prop_kv_version_tree =
  QCheck.Test.make ~name:"kv version tree matches the Map model" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 60)
           (pair (int_bound 1000) (QCheck.make kv_command_gen)))
        (list_of_size (Gen.int_range 0 30) (int_bound 1000)))
    (fun (steps, visits) ->
      let versions = ref [| (Kv.init (), Model.init ()) |] in
      let responses_agree =
        List.for_all
          (fun (pick, cmd) ->
            let vs = !versions in
            let t, m = vs.(pick mod Array.length vs) in
            let t', r = Kv.apply t cmd in
            let m', r' = Model.apply m cmd in
            versions := Array.append vs [| (t', m') |];
            Kv.equal_response r r' && agrees t m)
          steps
      in
      let vs = !versions in
      responses_agree
      && List.for_all
           (fun pick ->
             let t, m = vs.(pick mod Array.length vs) in
             agrees t m)
           visits
      && Array.for_all (fun (t, m) -> agrees t m) vs)

let kv_of cmds = List.fold_left (fun t c -> fst (Kv.apply t c)) (Kv.init ()) cmds

let model_of cmds =
  List.fold_left (fun m c -> fst (Model.apply m c)) (Model.init ()) cmds

let check_snapshot what t m =
  Alcotest.(check string) what (Model.snapshot m) (Kv.snapshot t)

(* The sorted-key cache follows the key set: a new key or a delete after a
   snapshot, an overwrite (which keeps the cache), and a step back to a
   version with fewer keys. *)
let test_kv_sorted_key_cache () =
  let base = [ Kv.Put ("m", "1"); Kv.Put ("c", "2"); Kv.Put ("x", "3") ] in
  let t = kv_of base and m = model_of base in
  check_snapshot "base" t m;
  let t1, _ = Kv.apply t (Kv.Put ("a", "4")) in
  let m1, _ = Model.apply m (Kv.Put ("a", "4")) in
  check_snapshot "new key after a snapshot" t1 m1;
  let t2, _ = Kv.apply t1 (Kv.Put ("c", "5")) in
  let m2, _ = Model.apply m1 (Kv.Put ("c", "5")) in
  check_snapshot "overwrite" t2 m2;
  let t3, _ = Kv.apply t2 (Kv.Delete "m") in
  let m3, _ = Model.apply m2 (Kv.Delete "m") in
  check_snapshot "delete after a snapshot" t3 m3;
  check_snapshot "back to the base version" t m;
  check_snapshot "forward again" t3 m3;
  check_snapshot "one step back" t2 m2

(* Snapshot bytes written by hand: [restore] keeps the last binding of a
   duplicate key, and the next snapshot is sorted whatever order the
   restored bytes had. *)
let raw_snapshot pairs =
  Codec.Writer.to_string
    (fun w pairs ->
      Codec.Writer.varint w (List.length pairs);
      List.iter
        (fun (k, v) ->
          Codec.Writer.string w k;
          Codec.Writer.string w v)
        pairs)
    pairs

let test_kv_restore_unsorted () =
  let restore_both what pairs =
    let bytes = raw_snapshot pairs in
    let t = Kv.restore bytes and m = Model.restore bytes in
    Alcotest.(check int) (what ^ ": cardinal") (Model.cardinal m) (Kv.cardinal t);
    List.iter
      (fun (k, _) ->
        Alcotest.(check (option string)) (what ^ ": " ^ k) (Model.find m k)
          (Kv.find t k))
      pairs;
    check_snapshot what t m;
    let t', _ = Kv.apply t (Kv.Put ("b", "new")) in
    let m', _ = Model.apply m (Kv.Put ("b", "new")) in
    check_snapshot (what ^ ", then a new key") t' m'
  in
  restore_both "sorted" [ ("a", "1"); ("c", "2"); ("d", "3") ];
  restore_both "unsorted" [ ("d", "1"); ("a", "2"); ("c", "3") ];
  restore_both "duplicate" [ ("a", "1"); ("c", "2"); ("a", "3") ];
  restore_both "adjacent duplicate" [ ("a", "1"); ("a", "2"); ("c", "3") ];
  restore_both "empty" []

(* A version 200,000 writes behind the current one is still itself: reading
   it flips the table back through every undo record in between, and
   reading the newest version flips it forward again. *)
let test_kv_long_reroot () =
  let t0 = kv_of [ Kv.Put ("a", "0") ] in
  let t = ref t0 in
  for i = 1 to 200_000 do
    t := fst (Kv.apply !t (Kv.Put (Printf.sprintf "k%d" (i mod 1000), "v")))
  done;
  Alcotest.(check int) "old version" 1 (Kv.cardinal t0);
  Alcotest.(check int) "newest version" 1001 (Kv.cardinal !t)

(* Minor-heap words per call of [f], over many calls.  Gc.minor_words is
   unboxed in native code, so the probe itself allocates nothing. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Sys.opaque_identity (f i))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let string_words n = 1 + ((n + 8) / 8)

(* A Put on the newest version of a 1,000-key store is one undo record,
   one version handle and the result pair; it copies no path. *)
let test_kv_put_allocation () =
  let n = 1000 in
  let names = Array.init n (Printf.sprintf "key%04d") in
  let t = ref (kv_of (Array.to_list (Array.map (fun k -> Kv.Put (k, "v0")) names))) in
  let puts = Array.map (fun k -> Kv.Put (k, "v1")) names in
  let words =
    words_per_call n (fun i ->
        let t', r = Kv.apply !t puts.(i - 1) in
        t := t';
        r)
  in
  Alcotest.(check int) "still 1,000 keys" n (Kv.cardinal !t);
  if words > 16. then
    Alcotest.failf "a Put on a 1,000-key store allocates %.1f words (> 16)" words

(* With the key set unchanged since the last snapshot, a snapshot is the
   result string alone; a reply without a payload is a shared string. *)
let test_kv_snapshot_allocation () =
  let t = kv_of (List.init 20 (fun i -> Kv.Put (Printf.sprintf "k%02d" i, "v"))) in
  let t, _ = Kv.apply t (Kv.Put ("k05", "w")) in
  let size = String.length (Kv.snapshot t) in
  Alcotest.(check (float 0.)) "snapshot words"
    (float_of_int (string_words size))
    (words_per_call 100 (fun _ -> Kv.snapshot t));
  List.iter
    (fun r ->
      Alcotest.(check (float 0.))
        (Format.asprintf "%a" Kv.pp_response r)
        0.
        (words_per_call 100 (fun _ -> Kv.encode_response r)))
    [ Kv.Ok; Kv.Value None; Kv.Cas_result true; Kv.Cas_result false ]

(* --- counter --- *)

let test_counter () =
  let t = Counter.init () in
  let t, r = Counter.apply t (Counter.Incr 5) in
  Alcotest.(check bool) "incr" true (r = Counter.Current 5);
  let t, r = Counter.apply t (Counter.Incr (-2)) in
  Alcotest.(check bool) "decr" true (r = Counter.Current 3);
  let _, r = Counter.apply t Counter.Read in
  Alcotest.(check bool) "read" true (r = Counter.Current 3);
  let restored = Counter.restore (Counter.snapshot t) in
  Alcotest.(check int) "snapshot" 3 (Counter.value restored)

(* --- bank --- *)

let test_bank_semantics () =
  let t = Bank.init () in
  let t, _ = Bank.apply t (Bank.Open ("alice", 100)) in
  let t, _ = Bank.apply t (Bank.Open ("bob", 50)) in
  let t, r = Bank.apply t (Bank.Transfer ("alice", "bob", 30)) in
  Alcotest.(check bool) "transfer ok" true (r = Bank.Ok);
  let t, r = Bank.apply t (Bank.Transfer ("alice", "bob", 1000)) in
  Alcotest.(check bool) "insufficient" true (r = Bank.Insufficient);
  let t, r = Bank.apply t (Bank.Transfer ("alice", "nobody", 1)) in
  Alcotest.(check bool) "no account" true (r = Bank.No_account);
  let _, r = Bank.apply t (Bank.Balance "bob") in
  Alcotest.(check bool) "balance" true (r = Bank.Amount 80);
  Alcotest.(check int) "total conserved" 150 (Bank.total t)

let bank_command_gen =
  QCheck.Gen.(
    let acct = map (Printf.sprintf "a%d") (int_bound 5) in
    oneof
      [
        map2 (fun a n -> Bank.Open (a, n)) acct (int_bound 100);
        map3
          (fun s d n -> Bank.Transfer (s, d, n))
          acct acct (int_bound 100);
        map (fun a -> Bank.Balance a) acct;
        return Bank.Total;
      ])

let prop_bank_transfer_conserves_total =
  QCheck.Test.make ~name:"transfers conserve total balance" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) (QCheck.make bank_command_gen))
    (fun cmds ->
      (* Transfers and queries never change the total; only Open does. *)
      let _, ok =
        List.fold_left
          (fun (t, ok) c ->
            let before = Bank.total t in
            let t', _ = Bank.apply t c in
            let preserved =
              match c with
              | Bank.Open _ -> true
              | Bank.Transfer _ | Bank.Balance _ | Bank.Total ->
                Bank.total t' = before
            in
            (t', ok && preserved))
          (Bank.init (), true)
          cmds
      in
      ok)

let prop_bank_command_roundtrip =
  QCheck.Test.make ~name:"bank command codec roundtrip" ~count:300
    (QCheck.make bank_command_gen) (fun c ->
      Bank.decode_command (Bank.encode_command c) = c)

(* --- register --- *)

let test_register () =
  let t = Register.init () in
  let t, r = Register.apply t Register.Read in
  Alcotest.(check bool) "initial" true (r = Register.Value 0);
  let t, _ = Register.apply t (Register.Write 7) in
  let t, r = Register.apply t (Register.Cas (7, 9)) in
  Alcotest.(check bool) "cas hit" true (r = Register.Cas_result true);
  let _, r = Register.apply t (Register.Cas (7, 11)) in
  Alcotest.(check bool) "cas miss" true (r = Register.Cas_result false)

let register_command_gen =
  QCheck.Gen.(
    oneof
      [
        return Register.Read;
        map (fun v -> Register.Write v) (int_bound 100);
        map2 (fun e v -> Register.Cas (e, v)) (int_bound 100) (int_bound 100);
      ])

let prop_register_roundtrips =
  QCheck.Test.make ~name:"register codecs roundtrip" ~count:300
    (QCheck.make register_command_gen) (fun c ->
      let ok_cmd = Register.decode_command (Register.encode_command c) = c in
      let _, r = Register.apply (Register.init ()) c in
      let ok_resp = Register.decode_response (Register.encode_response r) = r in
      ok_cmd && ok_resp)

let () =
  Alcotest.run "app"
    [
      ( "codec",
        [
          Alcotest.test_case "primitives roundtrip" `Quick
            test_codec_roundtrip_primitives;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          QCheck_alcotest.to_alcotest prop_varint_roundtrip;
          QCheck_alcotest.to_alcotest prop_zigzag_roundtrip;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
        ] );
      ( "kv",
        [
          Alcotest.test_case "semantics" `Quick test_kv_semantics;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_kv_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest prop_kv_command_roundtrip;
          QCheck_alcotest.to_alcotest prop_kv_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest prop_kv_apply_deterministic;
        ] );
      ( "kv model",
        [
          QCheck_alcotest.to_alcotest prop_kv_version_tree;
          Alcotest.test_case "sorted-key cache" `Quick test_kv_sorted_key_cache;
          Alcotest.test_case "restore unsorted or duplicate keys" `Quick
            test_kv_restore_unsorted;
          Alcotest.test_case "long reroot" `Quick test_kv_long_reroot;
        ] );
      ( "kv allocation",
        [
          Alcotest.test_case "put on a 1,000-key store" `Quick
            test_kv_put_allocation;
          Alcotest.test_case "snapshot and shared replies" `Quick
            test_kv_snapshot_allocation;
        ] );
      ("counter", [ Alcotest.test_case "semantics" `Quick test_counter ]);
      ( "bank",
        [
          Alcotest.test_case "semantics" `Quick test_bank_semantics;
          QCheck_alcotest.to_alcotest prop_bank_transfer_conserves_total;
          QCheck_alcotest.to_alcotest prop_bank_command_roundtrip;
        ] );
      ( "register",
        [
          Alcotest.test_case "semantics" `Quick test_register;
          QCheck_alcotest.to_alcotest prop_register_roundtrips;
        ] );
    ]
