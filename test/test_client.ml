(* Unit tests for the client protocol and the retry/redirect endpoint,
   driven against a scripted fake transport. *)

module Engine = Rsmr_sim.Engine
module Counters = Rsmr_sim.Counters
module Client_msg = Rsmr_client.Client_msg
module Endpoint = Rsmr_client.Endpoint

let test_msg_roundtrip () =
  let cases =
    [
      Client_msg.Request { seq = 3; low_water = 2; payload = Client_msg.Cmd "do" };
      Client_msg.Request
        { seq = 4; low_water = 0; payload = Client_msg.Change_membership [ 1; 2; 9 ] };
      Client_msg.Reply { seq = 3; rsp = "done" };
      Client_msg.Redirect
        { seq = 3; leader = Some 2; members = [ 0; 1; 2 ]; epoch = 7 };
      Client_msg.Redirect { seq = 3; leader = None; members = []; epoch = 0 };
      Client_msg.Request_batch
        {
          low_water = 1;
          reqs =
            [
              (5, Client_msg.Cmd "a");
              (6, Client_msg.Change_membership [ 2; 3 ]);
              (7, Client_msg.Cmd "b");
            ];
        };
      Client_msg.Request_batch { low_water = 0; reqs = [] };
    ]
  in
  List.iter
    (fun m ->
      if Client_msg.decode (Client_msg.encode m) <> m then
        Alcotest.failf "roundtrip failed for %a" Client_msg.pp m)
    cases

(* Scripted harness: records sends; test injects responses. *)
type harness = {
  engine : Engine.t;
  endpoint : Endpoint.t;
  sent : (Rsmr_net.Node_id.t * Client_msg.t) list ref; (* newest first *)
  replies : (int * string) list ref;
  lookups : int ref;
  mutable lookup_k : (Rsmr_app.Dir_app.entry option -> unit) option;
}

let make_harness ?(members = [ 0; 1; 2 ]) ?req_timeout ?batch_window ?batch_max
    () =
  let engine = Engine.create ~seed:3 () in
  let sent = ref [] and replies = ref [] and lookups = ref 0 in
  let h_ref = ref None in
  let endpoint =
    Endpoint.create ~engine ~me:100
      ~send:(fun ~dst msg -> sent := (dst, msg) :: !sent)
      ~members
      ~lookup:(fun k ->
        incr lookups;
        match !h_ref with Some h -> h.lookup_k <- Some k | None -> ())
      ?req_timeout ?batch_window ?batch_max
      ~on_reply:(fun ~seq ~rsp -> replies := (seq, rsp) :: !replies)
      ()
  in
  let h = { engine; endpoint; sent; replies; lookups; lookup_k = None } in
  h_ref := Some h;
  h

let last_send h = match !(h.sent) with [] -> None | x :: _ -> Some x

let test_submit_sends_request () =
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  match last_send h with
  | Some (_, Client_msg.Request { seq = 1; payload = Client_msg.Cmd "x"; _ }) -> ()
  | _ -> Alcotest.fail "expected a Request to be sent"

let test_reply_completes () =
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Endpoint.handle h.endpoint ~src:0 (Client_msg.Reply { seq = 1; rsp = "ok" });
  Alcotest.(check (list (pair int string))) "callback fired" [ (1, "ok") ]
    !(h.replies);
  Alcotest.(check int) "no longer outstanding" 0 (Endpoint.outstanding h.endpoint);
  (* A duplicate reply (from a retried request) is ignored. *)
  Endpoint.handle h.endpoint ~src:0 (Client_msg.Reply { seq = 1; rsp = "ok" });
  Alcotest.(check int) "duplicate ignored" 1 (List.length !(h.replies))

let test_timeout_retries_and_rotates () =
  let h = make_harness ~req_timeout:0.1 () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Engine.run ~until:0.55 h.engine;
  let attempts = List.length !(h.sent) in
  Alcotest.(check bool) "several retries happened" true (attempts >= 4);
  let dsts = List.map fst !(h.sent) |> List.sort_uniq compare in
  Alcotest.(check bool) "retries rotate across members" true
    (List.length dsts >= 2);
  Alcotest.(check int) "retry counter" (attempts - 1)
    (Counters.get (Endpoint.counters h.endpoint) "retries")

let test_redirect_follows_leader () =
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Endpoint.handle h.endpoint ~src:1
    (Client_msg.Redirect { seq = 1; leader = Some 2; members = [ 0; 1; 2 ]; epoch = 1 });
  Alcotest.(check (option int)) "leader cached" (Some 2)
    (Endpoint.believed_leader h.endpoint);
  (* The first hint is followed at once, before the engine runs. *)
  match last_send h with
  | Some (2, Client_msg.Request { seq = 1; _ }) -> ()
  | Some (dst, _) -> Alcotest.failf "resent to n%d, expected leader n2" dst
  | None -> Alcotest.fail "nothing sent"

let test_redirect_updates_members () =
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Endpoint.handle h.endpoint ~src:1
    (Client_msg.Redirect { seq = 1; leader = None; members = [ 7; 8; 9 ]; epoch = 2 });
  Alcotest.(check (list int)) "members replaced" [ 7; 8; 9 ]
    (Endpoint.believed_members h.endpoint);
  (* Stale (lower-epoch) redirects must not clobber the fresher view. *)
  Endpoint.handle h.endpoint ~src:0
    (Client_msg.Redirect { seq = 1; leader = None; members = [ 0; 1 ]; epoch = 1 });
  Alcotest.(check (list int)) "stale redirect ignored" [ 7; 8; 9 ]
    (Endpoint.believed_members h.endpoint)

let test_self_redirect_loop_broken () =
  (* A deposed leader that redirects to itself must not capture the client
     forever: a hint naming the redirecting node is dropped. *)
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  let first_target =
    match last_send h with Some (d, _) -> d | None -> Alcotest.fail "no send"
  in
  Endpoint.handle h.endpoint ~src:first_target
    (Client_msg.Redirect
       { seq = 1; leader = Some first_target; members = [ 0; 1; 2 ]; epoch = 1 });
  Alcotest.(check (option int)) "self-hint dropped" None
    (Endpoint.believed_leader h.endpoint);
  Engine.run ~until:1.0 h.engine;
  match last_send h with
  | Some (dst, _) ->
    Alcotest.(check bool) "rotated away from the looping node" true
      (dst <> first_target)
  | None -> Alcotest.fail "nothing resent"

let redirect h ~src ~leader seq =
  Endpoint.handle h.endpoint ~src
    (Client_msg.Redirect { seq; leader; members = [ 0; 1; 2 ]; epoch = 1 })

let request_dsts h =
  List.rev_map
    (function
      | dst, Client_msg.Request { seq; _ } -> (dst, seq)
      | dst, _ -> (dst, -1))
    !(h.sent)

(* Nothing is sent from the last clearing of [h.sent] until [d] more
   seconds of virtual time have passed. *)
let check_quiet h what d =
  Engine.run ~until:(Engine.now h.engine +. d) h.engine;
  Alcotest.(check (list (pair int int))) what [] (request_dsts h)

let test_batch_redirect_keeps_hint () =
  (* Every request of a batch bounced by a follower follows the follower's
     hint at once.  The first re-send already goes to the hinted leader;
     the rest must still trust a hint that names someone other than the
     node that redirected. *)
  let h = make_harness ~batch_window:0.001 () in
  List.iter
    (fun seq -> Endpoint.submit h.endpoint ~seq ~payload:(Client_msg.Cmd "c"))
    [ 1; 2; 3 ];
  Engine.run ~until:0.002 h.engine;
  (match last_send h with
   | Some (1, Client_msg.Request_batch _) -> ()
   | _ -> Alcotest.fail "expected one batch to n1");
  h.sent := [];
  List.iter (redirect h ~src:1 ~leader:(Some 0)) [ 1; 2; 3 ];
  Alcotest.(check (list (pair int int))) "all three re-sent to n0 at once"
    [ (0, 1); (0, 2); (0, 3) ] (request_dsts h)

let test_other_redirects_back_off () =
  (* The leader a first hint named bounces the request too: the second
     redirect backs off. *)
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  redirect h ~src:1 ~leader:(Some 2) 1;
  h.sent := [];
  redirect h ~src:2 ~leader:(Some 0) 1;
  check_quiet h "second redirect backs off" 0.0099;
  Engine.run ~until:(Engine.now h.engine +. 0.016) h.engine;
  Alcotest.(check (list (pair int int))) "then re-sent to the new hint"
    [ (0, 1) ] (request_dsts h);
  (* A first redirect with no hint backs off. *)
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  h.sent := [];
  redirect h ~src:1 ~leader:None 1;
  check_quiet h "no hint backs off" 0.0099;
  (* So does one whose hint names the node that redirected. *)
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  h.sent := [];
  redirect h ~src:1 ~leader:(Some 1) 1;
  Alcotest.(check (option int)) "self hint dropped" None
    (Endpoint.believed_leader h.endpoint);
  check_quiet h "self hint backs off" 0.0099

(* A redirect from an epoch older than the believed one (a joiner
   answering just before its bootstrap names the old configuration)
   carries no news: it changes neither the believed view nor the
   request's redirect count, so it neither spends the immediate re-send
   nor brings on the 10-25 ms back-off.  The request goes back to the
   believed leader after 1 ms. *)
let test_stale_redirect_is_no_news () =
  let stale h ~src seq =
    Endpoint.handle h.endpoint ~src
      (Client_msg.Redirect
         { seq; leader = Some 0; members = [ 0; 1; 2 ]; epoch = 0 })
  in
  (* After the immediate re-send: no back-off. *)
  let h = make_harness ~members:[ 0; 1; 2; 3 ] () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Endpoint.handle h.endpoint ~src:0
    (Client_msg.Redirect
       { seq = 1; leader = Some 3; members = [ 1; 2; 3 ]; epoch = 1 });
  (match last_send h with
   | Some (3, Client_msg.Request { seq = 1; _ }) -> ()
   | _ -> Alcotest.fail "first hint not followed at once");
  h.sent := [];
  stale h ~src:3 1;
  Alcotest.(check (option int)) "believed leader kept" (Some 3)
    (Endpoint.believed_leader h.endpoint);
  Alcotest.(check (list int)) "believed members kept" [ 1; 2; 3 ]
    (Endpoint.believed_members h.endpoint);
  check_quiet h "no send before 1 ms" 0.0009;
  Engine.run ~until:(Engine.now h.engine +. 0.0002) h.engine;
  Alcotest.(check (list (pair int int))) "re-sent to the believed leader"
    [ (3, 1) ] (request_dsts h);
  (* Before the immediate re-send: the stale redirect does not spend it. *)
  let h = make_harness ~members:[ 0; 1; 2; 3 ] () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Endpoint.submit h.endpoint ~seq:2 ~payload:(Client_msg.Cmd "y");
  (* Request 2's redirect moves the endpoint to epoch 1. *)
  Endpoint.handle h.endpoint ~src:0
    (Client_msg.Redirect
       { seq = 2; leader = Some 3; members = [ 1; 2; 3 ]; epoch = 1 });
  h.sent := [];
  stale h ~src:3 1;
  Alcotest.(check (list (pair int int))) "stale: nothing sent at once" []
    (request_dsts h);
  Endpoint.handle h.endpoint ~src:3
    (Client_msg.Redirect
       { seq = 1; leader = Some 2; members = [ 1; 2; 3 ]; epoch = 1 });
  Alcotest.(check (list (pair int int))) "then a fresh hint is followed at once"
    [ (2, 1) ] (request_dsts h);
  (* Stale redirects still count toward the cycle breaker: the sixth
     redirect of a request drops the believed leader. *)
  let h = make_harness ~members:[ 0; 1; 2; 3 ] () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Endpoint.handle h.endpoint ~src:0
    (Client_msg.Redirect
       { seq = 1; leader = Some 3; members = [ 1; 2; 3 ]; epoch = 1 });
  for _ = 1 to 4 do
    stale h ~src:3 1
  done;
  Alcotest.(check (option int)) "five redirects keep the leader" (Some 3)
    (Endpoint.believed_leader h.endpoint);
  stale h ~src:3 1;
  Alcotest.(check (option int)) "the sixth drops it" None
    (Endpoint.believed_leader h.endpoint)

let test_duplicated_redirect_no_storm () =
  (* Ten copies of one redirect (a duplicating network) cause at most one
     immediate re-send; the later copies only re-arm the request's single
     timer slot. *)
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  h.sent := [];
  for _ = 1 to 10 do
    redirect h ~src:1 ~leader:(Some 2) 1
  done;
  Alcotest.(check int) "one immediate send" 1 (List.length !(h.sent));
  Engine.run ~until:0.1 h.engine;
  Alcotest.(check bool) "at most one more after the back-off" true
    (List.length !(h.sent) <= 2)

let test_lookup_after_repeated_timeouts () =
  let h = make_harness ~req_timeout:0.1 () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Engine.run ~until:1.0 h.engine;
  Alcotest.(check bool) "directory consulted" true (!(h.lookups) >= 1);
  (* Deliver the lookup result; future attempts use the fresh members. *)
  (match h.lookup_k with
   | Some k ->
     k (Some { Rsmr_app.Dir_app.epoch = 1; members = [ 5; 6; 7 ]; leader = None })
   | None -> Alcotest.fail "no pending lookup");
  Alcotest.(check (list int)) "members refreshed" [ 5; 6; 7 ]
    (Endpoint.believed_members h.endpoint)

(* --- directory refresh (deterministic, scripted directory) --- *)

let test_lookup_single_flight () =
  (* While one directory lookup is unanswered, further retry rounds must
     not pile up more — the replicated directory may be wedged
     mid-reconfiguration, and N outstanding requests x retry storm must
     not translate into a lookup storm. *)
  let h = make_harness ~req_timeout:0.1 () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Endpoint.submit h.endpoint ~seq:2 ~payload:(Client_msg.Cmd "y");
  Engine.run ~until:3.0 h.engine;
  Alcotest.(check int) "exactly one lookup in flight" 1 !(h.lookups);
  Alcotest.(check bool) "retries kept probing meanwhile" true
    (Counters.get (Endpoint.counters h.endpoint) "retries" > 5);
  (* Answering it re-arms the slow path: the next retry rounds may ask
     again. *)
  (match h.lookup_k with
   | Some k ->
     k (Some { Rsmr_app.Dir_app.epoch = 1; members = [ 5; 6; 7 ]; leader = None })
   | None -> Alcotest.fail "no pending lookup");
  Engine.run ~until:6.0 h.engine;
  Alcotest.(check bool) "lookup re-armed after the answer" true
    (!(h.lookups) >= 2)

let test_empty_lookup_keeps_cached_members () =
  (* A directory with no entry yet (or one scrubbed by a wedge) answers
     "nobody"; the endpoint must keep probing its cached configuration
     rather than adopt an empty member set and go mute. *)
  let h = make_harness ~req_timeout:0.1 () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Engine.run ~until:1.0 h.engine;
  Alcotest.(check bool) "directory consulted" true (!(h.lookups) >= 1);
  (match h.lookup_k with
   | Some k -> k None
   | None -> Alcotest.fail "no pending lookup");
  Alcotest.(check (list int)) "cached members kept" [ 0; 1; 2 ]
    (Endpoint.believed_members h.endpoint);
  h.sent := [];
  Engine.run ~until:2.0 h.engine;
  Alcotest.(check bool) "still probing the cached members" true
    (List.for_all (fun (d, _) -> List.mem d [ 0; 1; 2 ]) !(h.sent)
    && !(h.sent) <> [])

let test_lookup_result_routes_retries () =
  (* Once the directory answers with the post-reconfiguration members,
     every subsequent retry must target the new replica group only — the
     old machines may now host a different shard. *)
  let h = make_harness ~req_timeout:0.1 () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Engine.run ~until:1.0 h.engine;
  (match h.lookup_k with
   | Some k ->
     k (Some { Rsmr_app.Dir_app.epoch = 1; members = [ 5; 6; 7 ]; leader = None })
   | None -> Alcotest.fail "no pending lookup");
  h.sent := [];
  Engine.run ~until:2.0 h.engine;
  Alcotest.(check bool) "all retries target the fresh members" true
    (List.for_all (fun (d, _) -> List.mem d [ 5; 6; 7 ]) !(h.sent)
    && !(h.sent) <> []);
  (* A redirect from the new group then pins the leader as usual. *)
  Endpoint.handle h.endpoint ~src:5
    (Client_msg.Redirect { seq = 1; leader = Some 6; members = [ 5; 6; 7 ]; epoch = 3 });
  Alcotest.(check (option int)) "leader adopted from redirect" (Some 6)
    (Endpoint.believed_leader h.endpoint)

let test_resubmit_same_seq_is_retry () =
  let h = make_harness () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "x");
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "ignored");
  Alcotest.(check int) "still one outstanding" 1 (Endpoint.outstanding h.endpoint);
  Endpoint.handle h.endpoint ~src:0 (Client_msg.Reply { seq = 1; rsp = "ok" });
  Alcotest.(check int) "one reply" 1 (List.length !(h.replies))

let test_coalescing_forms_batch () =
  let h = make_harness ~batch_window:0.001 () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "a");
  Endpoint.submit h.endpoint ~seq:2 ~payload:(Client_msg.Cmd "b");
  Endpoint.submit h.endpoint ~seq:3 ~payload:(Client_msg.Cmd "c");
  Alcotest.(check int) "nothing sent inside the window" 0
    (List.length !(h.sent));
  Engine.run ~until:0.002 h.engine;
  (match !(h.sent) with
   | [ (_, Client_msg.Request_batch { reqs; _ }) ] ->
     Alcotest.(check (list int)) "submission order preserved" [ 1; 2; 3 ]
       (List.map fst reqs)
   | sent ->
     Alcotest.failf "expected exactly one Request_batch, got %d sends"
       (List.length sent));
  Alcotest.(check int) "all three outstanding" 3
    (Endpoint.outstanding h.endpoint)

let test_batch_max_flushes_immediately () =
  let h = make_harness ~batch_window:1.0 ~batch_max:2 () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "a");
  Alcotest.(check int) "first submit buffered" 0 (List.length !(h.sent));
  Endpoint.submit h.endpoint ~seq:2 ~payload:(Client_msg.Cmd "b");
  (* Buffer hit batch_max: flushed without the engine advancing at all. *)
  match last_send h with
  | Some (_, Client_msg.Request_batch { reqs; _ }) ->
    Alcotest.(check (list int)) "full buffer shipped" [ 1; 2 ]
      (List.map fst reqs)
  | _ -> Alcotest.fail "expected an immediate Request_batch"

let test_batch_retry_is_single_request () =
  let h = make_harness ~batch_window:0.001 ~req_timeout:0.2 () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "a");
  Endpoint.submit h.endpoint ~seq:2 ~payload:(Client_msg.Cmd "b");
  Engine.run ~until:0.002 h.engine;
  Alcotest.(check int) "one batched send" 1 (List.length !(h.sent));
  (* One of the two gets a reply; the other times out and is retried. *)
  Endpoint.handle h.endpoint ~src:0 (Client_msg.Reply { seq = 1; rsp = "ok" });
  Engine.run ~until:0.5 h.engine;
  let retries =
    List.filter_map
      (function
        | _, Client_msg.Request { seq; _ } -> Some seq
        | _ -> None)
      !(h.sent)
  in
  Alcotest.(check bool) "timed-out request retried singly" true
    (List.length retries >= 1 && List.for_all (fun s -> s = 2) retries);
  Endpoint.handle h.endpoint ~src:0 (Client_msg.Reply { seq = 2; rsp = "ok" });
  Alcotest.(check int) "both complete" 0 (Endpoint.outstanding h.endpoint)

let test_single_submit_skips_batch_framing () =
  (* A lone request in the buffer goes out as a plain Request at flush
     time: no batch framing overhead for a window that caught nothing. *)
  let h = make_harness ~batch_window:0.001 () in
  Endpoint.submit h.endpoint ~seq:1 ~payload:(Client_msg.Cmd "a");
  Engine.run ~until:0.002 h.engine;
  match last_send h with
  | Some (_, Client_msg.Request { seq = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected a plain Request for a singleton flush"

let () =
  Alcotest.run "client"
    [
      ("msg", [ Alcotest.test_case "roundtrip" `Quick test_msg_roundtrip ]);
      ( "endpoint",
        [
          Alcotest.test_case "submit sends" `Quick test_submit_sends_request;
          Alcotest.test_case "reply completes" `Quick test_reply_completes;
          Alcotest.test_case "timeout retries+rotates" `Quick
            test_timeout_retries_and_rotates;
          Alcotest.test_case "redirect follows leader" `Quick
            test_redirect_follows_leader;
          Alcotest.test_case "redirect updates members" `Quick
            test_redirect_updates_members;
          Alcotest.test_case "self-redirect loop broken" `Quick
            test_self_redirect_loop_broken;
          Alcotest.test_case "batch redirect keeps the hint" `Quick
            test_batch_redirect_keeps_hint;
          Alcotest.test_case "other redirects back off" `Quick
            test_other_redirects_back_off;
          Alcotest.test_case "stale-epoch redirect is no news" `Quick
            test_stale_redirect_is_no_news;
          Alcotest.test_case "duplicated redirect: no storm" `Quick
            test_duplicated_redirect_no_storm;
          Alcotest.test_case "lookup after timeouts" `Quick
            test_lookup_after_repeated_timeouts;
          Alcotest.test_case "re-submit same seq" `Quick
            test_resubmit_same_seq_is_retry;
        ] );
      ( "directory refresh",
        [
          Alcotest.test_case "lookups are single-flight" `Quick
            test_lookup_single_flight;
          Alcotest.test_case "empty answer keeps cache" `Quick
            test_empty_lookup_keeps_cached_members;
          Alcotest.test_case "answer routes retries" `Quick
            test_lookup_result_routes_retries;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "window forms one batch" `Quick
            test_coalescing_forms_batch;
          Alcotest.test_case "batch_max flushes immediately" `Quick
            test_batch_max_flushes_immediately;
          Alcotest.test_case "retry is a single request" `Quick
            test_batch_retry_is_single_request;
          Alcotest.test_case "singleton skips batch framing" `Quick
            test_single_submit_skips_batch_framing;
        ] );
    ]
