module Dir_app = Rsmr_app.Dir_app
module Counters = Rsmr_sim.Counters

type pending =
  | P_lookup of string * (Dir_app.entry option -> unit)
  | P_publish

type t = {
  cluster : Rsmr_iface.Cluster.t;
  client : Rsmr_net.Node_id.t;
  mutable seq : int;
  pending : (int, pending) Hashtbl.t;
  (* Per-name single-flight: at most one Lookup for a name is in flight;
     later callers queue behind it.  Sequential per-name lookups are what
     makes the epoch-monotonicity observation sound — with concurrent
     lookups, network reordering could legally deliver an older snapshot
     after a newer one and a "regression" would mean nothing. *)
  queues : (string, (Dir_app.entry option -> unit) Queue.t) Hashtbl.t;
  last_seen : (string, int) Hashtbl.t;
  last_pub : (string, int * int option) Hashtbl.t;
  (* tallies behind [counters] *)
  mutable n_lookups : int;
  mutable n_lookup_replies : int;
  mutable n_publishes : int;
  mutable n_publish_acks : int;
  mutable regressions : int;
}

let rec attach ~cluster ~client () =
  let t =
    {
      cluster;
      client;
      seq = 0;
      pending = Hashtbl.create 16;
      queues = Hashtbl.create 8;
      last_seen = Hashtbl.create 8;
      last_pub = Hashtbl.create 8;
      n_lookups = 0;
      n_lookup_replies = 0;
      n_publishes = 0;
      n_publish_acks = 0;
      regressions = 0;
    }
  in
  cluster.Rsmr_iface.Cluster.add_client client;
  cluster.Rsmr_iface.Cluster.set_on_reply (fun ~client:c ~seq ~rsp ->
      if Rsmr_net.Node_id.equal c t.client then begin
        match Hashtbl.find_opt t.pending seq with
        | None -> ()
        | Some p ->
          Hashtbl.remove t.pending seq;
          (match p with
           | P_publish -> t.n_publish_acks <- t.n_publish_acks + 1
           | P_lookup (name, k) ->
             t.n_lookup_replies <- t.n_lookup_replies + 1;
             let entry =
               match Dir_app.decode_response rsp with
               | Dir_app.Info e -> e
               | Dir_app.Acked -> None
             in
             let last =
               Option.value (Hashtbl.find_opt t.last_seen name) ~default:(-1)
             in
             let seen =
               match entry with Some e -> e.Dir_app.epoch | None -> -1
             in
             if seen < last then t.regressions <- t.regressions + 1
             else Hashtbl.replace t.last_seen name seen;
             k entry;
             next_lookup t name)
      end);
  t

and submit t payload =
  t.seq <- t.seq + 1;
  t.cluster.Rsmr_iface.Cluster.submit ~client:t.client ~seq:t.seq ~cmd:payload;
  t.seq

and next_lookup t name =
  match Hashtbl.find_opt t.queues name with
  | None -> ()
  | Some q ->
    if Queue.is_empty q then Hashtbl.remove t.queues name
    else begin
      let k = Queue.pop q in
      t.n_lookups <- t.n_lookups + 1;
      let seq = submit t (Dir_app.encode_command (Dir_app.Lookup name)) in
      Hashtbl.replace t.pending seq (P_lookup (name, k))
    end

let lookup t ~name k =
  let q =
    match Hashtbl.find_opt t.queues name with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues name q;
      q
  in
  let idle =
    Queue.is_empty q
    && not
         (Hashtbl.fold
            (fun _ p acc ->
              acc
              ||
              match p with
              | P_lookup (n, _) -> String.equal n name
              | P_publish -> false)
            t.pending false)
  in
  Queue.push k q;
  if idle then next_lookup t name

let publish t ~name ~epoch ~members ~leader =
  let fresh =
    match Hashtbl.find_opt t.last_pub name with
    | None -> true
    | Some (e, l) -> epoch > e || (epoch = e && leader <> None && leader <> l)
  in
  if fresh then begin
    Hashtbl.replace t.last_pub name (epoch, leader);
    t.n_publishes <- t.n_publishes + 1;
    let seq =
      submit t
        (Dir_app.encode_command (Dir_app.Update { name; epoch; members; leader }))
    in
    Hashtbl.replace t.pending seq P_publish
  end

let last_epoch t ~name =
  Option.value (Hashtbl.find_opt t.last_seen name) ~default:(-1)

let regressions t = t.regressions
let counters t =
  Counters.make (fun () ->
      [
        ("lookups", t.n_lookups);
        ("lookup_replies", t.n_lookup_replies);
        ("publishes", t.n_publishes);
        ("publish_acks", t.n_publish_acks);
      ])
