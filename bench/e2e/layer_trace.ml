(* Per-layer host-time tracing from outside the library.

   The traced stacks are built from the functors below: every call into a
   layer's public functions opens a span at that layer's boundary, and
   every callback the composition layer hands to a block opens a span at
   the composition layer's boundary.  A span's self time is its duration
   minus the time of the spans nested in it, so the self times of all
   boundaries plus the untimed remainder add up to the measured phase.

   Host time is read only through [Monotonic_clock.now]; nothing here
   feeds back into the simulation, so a traced run makes exactly the
   same virtual-time decisions as an untraced one. *)

module Block_intf = Rsmr_smr.Block_intf
module State_machine = Rsmr_app.State_machine
module Cluster = Rsmr_iface.Cluster

let names =
  [|
    "core.decide";
    "core.egress";
    "smr.block";
    "smr.codec";
    "app.apply";
    "app.codec";
    "app.snapshot";
    "client.submit";
    "workload.driver";
  |]

let core_decide = 0
let core_egress = 1
let smr_block = 2
let smr_codec = 3
let app_apply = 4
let app_codec = 5
let app_snapshot = 6
let client_submit = 7
let workload_driver = 8
let n_boundaries = Array.length names

(* Per-boundary accumulators. *)
let calls = Array.make n_boundaries 0
let total_ns = Array.make n_boundaries 0
let self_ns = Array.make n_boundaries 0

(* Bytes produced by [Sm.snapshot], the one size the app boundary sees. *)
let snapshot_bytes = ref 0

(* Open spans, innermost last. *)
let max_depth = 64
let st_boundary = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_raw = Array.make max_depth (-1)
let depth = ref 0

(* The first [raw_cap] spans of the measured phase, kept so the self-time
   arithmetic can be audited offline. *)
let raw_cap = 100_000
let raw_boundary = Array.make raw_cap 0
let raw_start = Array.make raw_cap 0
let raw_end = Array.make raw_cap 0
let raw_parent = Array.make raw_cap (-1)
let n_raw = ref 0

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Start the measured phase: forget everything recorded during set-up. *)
let reset () =
  Array.fill calls 0 n_boundaries 0;
  Array.fill total_ns 0 n_boundaries 0;
  Array.fill self_ns 0 n_boundaries 0;
  snapshot_bytes := 0;
  n_raw := 0

let enter b =
  let d = !depth in
  st_boundary.(d) <- b;
  st_child.(d) <- 0;
  (if !n_raw < raw_cap then begin
     let i = !n_raw in
     n_raw := i + 1;
     raw_boundary.(i) <- b;
     raw_parent.(i) <- (if d > 0 then st_raw.(d - 1) else -1);
     st_raw.(d) <- i
   end
   else st_raw.(d) <- -1);
  depth := d + 1;
  st_start.(d) <- now_ns ()

let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let b = st_boundary.(d) in
  let dur = t - st_start.(d) in
  calls.(b) <- calls.(b) + 1;
  total_ns.(b) <- total_ns.(b) + dur;
  self_ns.(b) <- self_ns.(b) + dur - st_child.(d);
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  let i = st_raw.(d) in
  if i >= 0 then begin
    raw_start.(i) <- st_start.(d);
    raw_end.(i) <- t
  end

let span b f =
  enter b;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

let self_total () = Array.fold_left ( + ) 0 self_ns

module Timed_block (B : Block_intf.S) : Block_intf.S = struct
  let block_name = B.block_name

  module Msg = struct
    type t = B.Msg.t

    let encode m = span smr_codec (fun () -> B.Msg.encode m)
    let decode s = span smr_codec (fun () -> B.Msg.decode s)
    let size m = span smr_codec (fun () -> B.Msg.size m)
    let tag m = span smr_codec (fun () -> B.Msg.tag m)
    let tag_of_encoded s = span smr_codec (fun () -> B.Msg.tag_of_encoded s)
  end

  type t = B.t

  (* The callbacks are the composition layer's code running inside the
     block: [on_decide] is Service's decide path, [send]/[broadcast] its
     egress (Wire tunnel and network send). *)
  let create ~engine ~params ~config ~me ~send ?broadcast ?obs ~on_decide () =
    let send ~dst m = span core_egress (fun () -> send ~dst m) in
    let broadcast =
      Option.map (fun bc m -> span core_egress (fun () -> bc m)) broadcast
    in
    let on_decide idx v = span core_decide (fun () -> on_decide idx v) in
    span smr_block (fun () ->
        B.create ~engine ~params ~config ~me ~send ?broadcast ?obs ~on_decide
          ())

  let handle t ~src m = span smr_block (fun () -> B.handle t ~src m)
  let submit t v = span smr_block (fun () -> B.submit t v)
  let submit_many t vs = span smr_block (fun () -> B.submit_many t vs)
  let submit_msg v = span smr_block (fun () -> B.submit_msg v)
  let submit_many_msg vs = span smr_block (fun () -> B.submit_many_msg vs)
  let is_leader t = span smr_block (fun () -> B.is_leader t)
  let leader_hint t = span smr_block (fun () -> B.leader_hint t)
  let halt t = span smr_block (fun () -> B.halt t)
  let is_halted t = span smr_block (fun () -> B.is_halted t)
  let commit_index t = span smr_block (fun () -> B.commit_index t)
  let fingerprint t = span smr_block (fun () -> B.fingerprint t)
end

module Timed_app (Sm : State_machine.S) :
  State_machine.S
    with type t = Sm.t
     and type command = Sm.command
     and type response = Sm.response = struct
  include Sm

  let apply s c = span app_apply (fun () -> Sm.apply s c)
  let encode_command c = span app_codec (fun () -> Sm.encode_command c)
  let decode_command s = span app_codec (fun () -> Sm.decode_command s)
  let encode_response r = span app_codec (fun () -> Sm.encode_response r)
  let decode_response s = span app_codec (fun () -> Sm.decode_response s)

  let snapshot s =
    span app_snapshot (fun () ->
        let bytes = Sm.snapshot s in
        snapshot_bytes := !snapshot_bytes + String.length bytes;
        bytes)

  let restore s = span app_snapshot (fun () -> Sm.restore s)
end

(* The client library's entry point and the workload driver's reply
   handler, seen through the protocol-agnostic cluster record. *)
let timed_cluster (c : Cluster.t) =
  {
    c with
    Cluster.submit =
      (fun ~client ~seq ~cmd ->
        span client_submit (fun () -> c.Cluster.submit ~client ~seq ~cmd));
    set_on_reply =
      (fun h ->
        c.Cluster.set_on_reply (fun ~client ~seq ~rsp ->
            span workload_driver (fun () -> h ~client ~seq ~rsp)));
  }

(* Accumulators and raw spans as one JSON document. *)
let write_json path =
  let oc = open_out path in
  Printf.fprintf oc "{\"schema\": \"rsmr-spans/1\",\n \"boundaries\": [";
  Array.iteri
    (fun b name ->
      Printf.fprintf oc
        "%s\n  {\"name\": \"%s\", \"calls\": %d, \"total_ns\": %d, \
         \"self_ns\": %d}"
        (if b = 0 then "" else ",")
        name calls.(b) total_ns.(b) self_ns.(b))
    names;
  Printf.fprintf oc
    "],\n \"span_fields\": [\"boundary\", \"start_ns\", \"end_ns\", \
     \"parent\"],\n \"spans\": [";
  for i = 0 to !n_raw - 1 do
    Printf.fprintf oc "%s\n  [%d, %d, %d, %d]"
      (if i = 0 then "" else ",")
      raw_boundary.(i) raw_start.(i) raw_end.(i) raw_parent.(i)
  done;
  Printf.fprintf oc "]}\n";
  close_out oc
