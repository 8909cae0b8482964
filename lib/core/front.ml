module Engine = Rsmr_sim.Engine
module Trace = Rsmr_sim.Trace
module Stable = Rsmr_sim.Stable
module Network = Rsmr_net.Network
module Node_id = Rsmr_net.Node_id
module Client_msg = Rsmr_client.Client_msg
module Endpoint = Rsmr_client.Endpoint
module Overlay = Rsmr_iface.Overlay

type handler = {
  on_client : src:Node_id.t -> Client_msg.t -> unit;
  on_update :
    epoch:int -> members:Node_id.t list -> leader:Node_id.t option -> unit;
  on_lookup : src:Node_id.t -> unit;
  on_info :
    epoch:int -> members:Node_id.t list -> leader:Node_id.t option -> unit;
}

type 'w wire = {
  to_client : Client_msg.t -> 'w;
  lookup : 'w;
  info :
    epoch:int -> members:Node_id.t list -> leader:Node_id.t option -> 'w;
  recv : handler -> 'w Network.envelope -> unit;
}

type client = {
  endpoint : Endpoint.t;
  dir_k : (Rsmr_app.Dir_app.entry option -> unit) option ref;
      (* continuation of the endpoint's outstanding directory lookup *)
}

type 'w t = {
  engine : Engine.t;
  net : 'w Network.t;
  bus : Trace.t;
  wire : 'w wire;
  batch_window : float;
  batch_max : int;
  dir : Directory.t;
  dir_id : Node_id.t;
  admin_id : Node_id.t;
  mutable admin_seq : int;
  clients : (Node_id.t, client) Hashtbl.t;
  mutable on_reply : Rsmr_iface.Cluster.reply_handler;
}

let create ~engine ~net ~bus ~wire ~universe ~batch_window ~batch_max =
  let top = List.fold_left max 0 universe in
  {
    engine;
    net;
    bus;
    wire;
    batch_window;
    batch_max;
    dir = Directory.create ();
    dir_id = top + 1;
    admin_id = top + 2;
    admin_seq = 0;
    clients = Hashtbl.create 16;
    on_reply = (fun ~client:_ ~seq:_ ~rsp:_ -> ());
  }

(* Per-command lifecycle events for span reconstruction.  Everything
   tooling needs travels in attrs, never the message. *)
let lifecycle t ~node ev attrs =
  Trace.emit t.bus ~time:(Engine.now t.engine) ~node ~topic:`Lifecycle
    ~attrs:(("ev", ev) :: attrs) ev

let command_lifecycle t ~node ev ~client ~seq ~epoch ~idx =
  if Trace.active t.bus then
    lifecycle t ~node ev
      [
        ("client", string_of_int client);
        ("seq", string_of_int seq);
        ("epoch", string_of_int epoch);
        ("idx", string_of_int idx);
      ]

let dir_id t = t.dir_id
let directory t = t.dir
let ignore_entry ~epoch:_ ~members:_ ~leader:_ = ()

(* The directory node: monotone-epoch updates in, current entry out. *)
let dir_handler t =
  {
    on_client = (fun ~src:_ _ -> ());
    on_update = Directory.update t.dir;
    on_lookup =
      (fun ~src ->
        Network.send t.net ~src:t.dir_id ~dst:src
          (t.wire.info ~epoch:(Directory.epoch t.dir)
             ~members:(Directory.members t.dir)
             ~leader:(Directory.leader t.dir)));
    on_info = ignore_entry;
  }
[@@rsmr.deterministic] [@@rsmr.total]

(* One client: replies and redirects feed its endpoint, a directory
   answer resumes the endpoint's pending lookup. *)
let client_handler endpoint dir_k =
  {
    on_client = Endpoint.handle endpoint;
    on_update = ignore_entry;
    on_lookup = (fun ~src:_ -> ());
    on_info =
      (fun ~epoch ~members ~leader ->
        match !dir_k with
        | Some k ->
          dir_k := None;
          if members = [] then k None
          else k (Some { Rsmr_app.Dir_app.epoch; members; leader })
        | None -> ());
  }
[@@rsmr.deterministic] [@@rsmr.total]

(* How long a client waits for the directory's answer before taking the
   lookup as lost: twice the endpoint's request timeout, and shorter than
   the three timeouts between one request's refresh points. *)
let lookup_timeout = 1.0

let add_client t cid =
  if not (Hashtbl.mem t.clients cid) then begin
    let dir_k = ref None in
    let lookup_sent = ref 0.0 in
    (* A lookup is one datagram each way.  Lost, it would hold the
       endpoint's single lookup for good, so once it is overdue the
       client's next send answers it "nobody": the endpoint keeps its
       cached members and asks again at its next refresh point. *)
    let expire_lookup () =
      match !dir_k with
      | Some k when Engine.now t.engine -. !lookup_sent >= lookup_timeout ->
        dir_k := None;
        k None
      | Some _ | None -> ()
    in
    let endpoint =
      Endpoint.create ~engine:t.engine ~me:cid ~bus:t.bus
        ~send:(fun ~dst msg ->
          Network.send t.net ~src:cid ~dst (t.wire.to_client msg);
          expire_lookup ())
        ~members:(Directory.members t.dir) ~batch_window:t.batch_window
        ~batch_max:t.batch_max
        ~lookup:(fun k ->
          dir_k := Some k;
          lookup_sent := Engine.now t.engine;
          Network.send t.net ~src:cid ~dst:t.dir_id t.wire.lookup)
        ~on_reply:(fun ~seq ~rsp -> t.on_reply ~client:cid ~seq ~rsp)
        ()
    in
    Hashtbl.replace t.clients cid { endpoint; dir_k };
    Network.register t.net cid (t.wire.recv (client_handler endpoint dir_k))
  end

let start t ~members =
  Directory.update t.dir ~epoch:0 ~members ~leader:None;
  Network.register t.net t.dir_id (t.wire.recv (dir_handler t));
  add_client t t.admin_id

let reconfigure t members =
  t.admin_seq <- t.admin_seq + 1;
  match Hashtbl.find_opt t.clients t.admin_id with
  | Some c ->
    Endpoint.submit c.endpoint ~seq:t.admin_seq
      ~payload:(Client_msg.Change_membership members)
  | None -> (* the admin session is created by [start] *) ()

let submit t ~client ~seq ~cmd =
  match Hashtbl.find_opt t.clients client with
  | Some c -> Endpoint.submit c.endpoint ~seq ~payload:(Client_msg.Cmd cmd)
  | None -> invalid_arg "submit: unknown client (call add_client)"

let cluster t ~obs =
  {
    Rsmr_iface.Cluster.engine = t.engine;
    add_client = (fun cid -> add_client t cid);
    submit = (fun ~client ~seq ~cmd -> submit t ~client ~seq ~cmd);
    set_on_reply = (fun h -> t.on_reply <- h);
    members = (fun () -> Directory.members t.dir);
    control =
      {
        Overlay.fault =
          (function
            | Overlay.Crash n -> Network.crash t.net n
            | Overlay.Recover n -> Network.recover t.net n
            | Overlay.Partition groups -> Network.partition t.net groups
            | Overlay.Heal -> Network.heal t.net);
        reconfigure = (fun members -> reconfigure t members);
      };
    obs;
  }

let write_state w t =
  let module W = Rsmr_app.Codec.Writer in
  let node w n = W.varint w (n : Node_id.t) in
  W.varint w (Directory.epoch t.dir);
  W.list w node (Directory.members t.dir);
  W.option w node (Directory.leader t.dir);
  W.varint w t.admin_seq;
  Stable.iter_sorted ~compare:Node_id.compare
    (fun id c ->
      node w id;
      W.string w (Endpoint.fingerprint c.endpoint);
      W.bool w (Option.is_some !(c.dir_k)))
    t.clients
[@@rsmr.deterministic] [@@rsmr.codec.oneway]
