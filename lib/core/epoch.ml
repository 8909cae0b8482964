module Node_id = Rsmr_net.Node_id
module Imap = Map.Make (Int)
module W = Rsmr_app.Codec.Writer

let fetch_timeout = 0.25
let early_cap = 64
let rebootstraps = 40
let drain_barrier = Envelope.encode Envelope.Drain
let boot_leader members = List.nth_opt (List.sort Node_id.compare members) 0
let mem n l = List.exists (Node_id.equal n) l
let others me l = List.filter (fun m -> not (Node_id.equal m me)) l

let donor_order ~me ~members ~prev_members =
  let others = others me prev_members in
  match boot_leader members with
  | Some leader ->
    let last, first = List.partition (Node_id.equal leader) others in
    first @ last
  | None -> others

let nth_donor ~me donors asked =
  if donors = [] then None
  else List.nth_opt donors ((me + asked) mod List.length donors)

type donation =
  | Asked of Node_id.t list (* newest first *)
  | Ready of { members : Node_id.t list; snapshot : Snapshot.t }

type fetch = {
  donors : Node_id.t list; (* [] until an instance takes the fetch over *)
  total : int;
  chunks : string Imap.t; (* by index, each below [total] *)
  armed : bool;
  asked : int; (* donors asked so far, counting a push as one *)
}

type inst = {
  members : Node_id.t list;
  retired : bool; started : bool; activated : bool; announced : bool;
  wedged_at : int option;
  next_members : Node_id.t list;
  early : (Node_id.t * string) list;
  spec_buf : (int * string) list;
  residual_buf : string list;
  flushing : bool;
  reboots : int;
}

type slot = { inst : inst option; donation : donation option; fetch : fetch option }

type t = {
  me : Node_id.t;
  dir : Node_id.t;
  push : bool; speculative : bool; resubmit : bool; (* the strategy's dials *)
  top : int; (* the newest epoch known, and its members *)
  latest : Node_id.t list;
  slots : slot Imap.t;
}

type timer = Refetch | Flush | Drain | Rebootstrap | Announce

type input =
  | Bootstrap of { epoch : int; members : Node_id.t list; prev_members : Node_id.t list }
  | Early of { epoch : int; src : Node_id.t; data : string }
  | Decided of { epoch : int; idx : int; value : string }
  | Wedge of {
      epoch : int; idx : int; members : Node_id.t list; snapshot : Snapshot.t;
      leader : bool }
  | Residual of { epoch : int; value : string; leader : bool }
  | Drained of { epoch : int; leader : bool }
  | Retire of int
  | Fetch of { src : Node_id.t; epoch : int }
  | Chunk of { epoch : int; index : int; total : int; data : string }
  | Installed of int
  | Rejected of int
  | Fired of { timer : timer; epoch : int; leader : bool }

type effect_ =
  | Send of { dst : Node_id.t; msg : Wire.t }
  | Send_snapshot of { dst : Node_id.t; epoch : int; snapshot : Snapshot.t }
  | Forward of { dst : Node_id.t; epoch : int; values : string list }
  | Submit of { epoch : int; values : string list }
  | Arm of { timer : timer; epoch : int; delay : float }
  | Cancel of { timer : timer; epoch : int }
  | Create of { epoch : int; members : Node_id.t list }
  | Start of { epoch : int; early : (Node_id.t * string) list }
  | Halt of int
  | Wedged of { epoch : int; idx : int; snapshot : Snapshot.t }
  | Resubmitted
  | Install of { epoch : int; chunks : string list }
  | Activated of { epoch : int; local : bool }
  | Replay of { epoch : int; decided : (int * string) list }
  | Poll of int
  | Publish of { epoch : int; members : Node_id.t list; leader : Node_id.t option }

let empty = { inst = None; donation = None; fetch = None }

let fresh_inst members =
  { members = List.sort_uniq Node_id.compare members; retired = false;
    started = false; activated = false; announced = false; wedged_at = None;
    next_members = []; early = []; spec_buf = []; residual_buf = [];
    flushing = false; reboots = 0 }

let create ~me ~dir ~(strategy : Rsmr_iface.Reconfig_strategy.t) ~members =
  let zero =
    { (fresh_inst members) with started = true; activated = true; announced = true }
  in
  { me; dir; push = strategy.transfer = `Push;
    speculative = strategy.handoff = `Speculative;
    resubmit = strategy.residuals = `Resubmit; top = 0; latest = members;
    slots =
      (if mem me members then Imap.singleton 0 { empty with inst = Some zero }
       else Imap.empty) }

let latest t = (t.top, t.latest)

let serving t =
  Imap.fold
    (fun e s acc ->
      match s.inst with Some { started = true; retired = false; _ } -> e | Some _ | None -> acc)
    t.slots (-1)

let fold f t acc =
  Imap.fold (fun e s acc -> match s.inst with Some i -> f e i acc | None -> acc)
    t.slots acc

(* No allocation: a decided command reads [activated] and [wedged_at]. *)
let slot t e = match Imap.find e t.slots with s -> s | exception Not_found -> empty
let inst t e = (slot t e).inst
let live t e = match inst t e with Some i -> not i.retired | None -> false
let activated t e = match inst t e with Some i -> i.activated | None -> false
let wedged_at t e = match inst t e with Some i -> i.wedged_at | None -> None

let update t e f =
  match f (slot t e) with
  | { inst = None; donation = None; fetch = None } ->
    { t with slots = Imap.remove e t.slots }
  | s -> { t with slots = Imap.add e s t.slots }

let set_inst t e i = update t e (fun s -> { s with inst = Some i })
let put t e f = update t e (fun s -> { s with fetch = Some f })
let note t epoch members =
  if epoch > t.top then { t with top = epoch; latest = members } else t

(* --- state transfer --- *)

(* Under push, a member new to the configuration is sent the snapshot at
   the wedge, unasked, by the donor its fetch would ask first. *)
let pushed t ~joiner ~prev_members = t.push && not (mem joiner prev_members)

let arm t epoch f =
  ( put t epoch { f with armed = true },
    [ Arm { timer = Refetch; epoch; delay = fetch_timeout } ] )

(* Ask the next donor, and wait one [fetch_timeout] for its chunks. *)
let ask t epoch f =
  match nth_donor ~me:t.me f.donors f.asked with
  | None -> (put t epoch f, [])
  | Some dst ->
    let t, timer = arm t epoch { f with asked = f.asked + 1 } in
    (t, Send { dst; msg = Wire.Fetch_state { epoch } } :: timer)

let install epoch f =
  if f.total > 0 && Imap.cardinal f.chunks = f.total then
    [ Install { epoch; chunks = List.map snd (Imap.bindings f.chunks) } ]
  else []

let drop t epoch =
  match (slot t epoch).fetch with
  | Some _ -> (update t epoch (fun s -> { s with fetch = None }), [ Cancel { timer = Refetch; epoch } ])
  | None -> (t, [])

let fresh = { donors = []; total = 0; chunks = Imap.empty; armed = false; asked = 0 }
let fetch t epoch = Option.value (slot t epoch).fetch ~default:fresh

(* The wedge of [epoch - 1] readies its snapshot: the parked fetches of
   members are served, and the joiners whose first donor this host is
   are pushed to. *)
let donate t epoch ~members ~prev_members ~snapshot =
  let served =
    match (slot t epoch).donation with
    | Some (Asked waiting) -> List.filter (fun d -> mem d members) waiting
    | Some (Ready _) | None -> []
  in
  let pushes =
    List.filter
      (fun d ->
        pushed t ~joiner:d ~prev_members
        && (not (mem d served))
        && nth_donor ~me:d (donor_order ~me:d ~members ~prev_members) 0
           = Some t.me)
      members
  in
  let send dst = Send_snapshot { dst; epoch; snapshot } in
  ( update t epoch (fun s -> { s with donation = Some (Ready { members; snapshot }) }),
    List.map send served,
    List.map send pushes )

(* --- the lifecycle --- *)

let bootstraps t ~epoch ~(prev : inst) =
  let members = prev.next_members and prev_members = prev.members in
  let boot dst =
    Send { dst; msg = Wire.Bootstrap { epoch = epoch + 1; members; prev_epoch = epoch; prev_members } }
  in
  List.map boot (others t.me members)
  @ [ Send { dst = t.dir; msg = Wire.Dir_update { epoch = epoch + 1; members; leader = None } } ]

let submit_drain t epoch ~leader =
  if leader && live t epoch then [ Submit { epoch; values = [ drain_barrier ] } ]
  else []

(* An instance created without state: it starts at once under
   speculative handoff, and awaits its transfer. *)
let create_inst t epoch ~members ~prev_members =
  let prev_live = live t (epoch - 1) in
  let t =
    note (set_inst t epoch { (fresh_inst members) with started = t.speculative })
      epoch members
  in
  let start = if t.speculative then [ Start { epoch; early = [] } ] else [] in
  let f = { (fetch t epoch) with donors = donor_order ~me:t.me ~members ~prev_members } in
  let t, awaiting =
    match install epoch f with
    | _ :: _ as done_ -> (put t epoch f, done_)
    | [] when prev_live -> arm t epoch f
    | [] when pushed t ~joiner:t.me ~prev_members -> arm t epoch { f with asked = 1 }
    | [] -> ask t epoch f
  in
  (t, (Create { epoch; members } :: start) @ awaiting)

(* The speculative buffer replays in index order, then the announce
   check runs. *)
let activate t epoch ~local =
  match inst t epoch with
  | Some ({ retired = false; activated = false; _ } as i) ->
    let t = set_inst t epoch { i with activated = true; started = true; early = []; spec_buf = [] } in
    let t, cancel = drop t epoch in
    let start = if i.started then [] else [ Start { epoch; early = List.rev i.early } ] in
    let replay =
      match List.rev i.spec_buf with
      | [] -> []
      | buf ->
        [ Replay { epoch; decided = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) buf } ]
    in
    (t, (Activated { epoch; local } :: cancel) @ start @ replay @ [ Poll epoch ])
  | Some _ | None -> (t, [])

(* First wedge wins.  Serve the parked fetches, tell the new
   configuration and the directory that it exists, then push; a member
   of both configurations hands its own state over. *)
let wedge t epoch ~idx ~members ~snapshot ~leader =
  match inst t epoch with
  | Some ({ wedged_at = None; retired = false; _ } as i) ->
    let i = { i with wedged_at = Some idx; next_members = members; reboots = rebootstraps } in
    let t = note (set_inst t epoch i) (epoch + 1) members in
    let t, serves, pushes = donate t (epoch + 1) ~members ~prev_members:i.members ~snapshot in
    let drain = if leader then [ Arm { timer = Drain; epoch; delay = 0.0 } ] else [] in
    let t, handoff =
      match inst t (epoch + 1) with
      | _ when not (mem t.me members) -> (t, [])
      | Some { retired = true; _ } -> (t, [])
      | Some _ -> activate t (epoch + 1) ~local:true
      | None ->
        (* The own wedge's state wins over any chunks held for the new
           epoch: a continuing member asks for none. *)
        let t, created = create_inst t (epoch + 1) ~members ~prev_members:i.members in
        let t, act = activate t (epoch + 1) ~local:true in
        (t, List.filter (function Install _ -> false | _ -> true) created @ act)
    in
    ( t,
      (Wedged { epoch; idx; snapshot } :: serves)
      @ bootstraps t ~epoch ~prev:i @ pushes @ drain
      @ [ Arm { timer = Rebootstrap; epoch; delay = 0.25 };
          Publish { epoch = epoch + 1; members; leader = None } ]
      @ handoff )
  | Some _ | None -> (t, [])

(* Retiring [epoch] also drops every donation keyed below it.  Gone
   unwedged (it lagged, then got [Retire]), no local handoff is coming,
   so a next instance that asked nobody yet fetches now. *)
let retire t epoch =
  match inst t epoch with
  | Some ({ retired = false; _ } as i) ->
    let t = set_inst t epoch { i with retired = true; early = []; spec_buf = [] } in
    let t, cancel = drop t epoch in
    let t =
      Imap.fold
        (fun e _ t -> if e < epoch then update t e (fun s -> { s with donation = None }) else t)
        t.slots t
    in
    let t, fetch =
      match (slot t (epoch + 1), i.wedged_at) with
      | { inst = Some { retired = false; _ }; fetch = Some f; _ }, None when f.asked = 0 ->
        ask t (epoch + 1) f
      | _ -> (t, [])
    in
    (t, (Halt epoch :: cancel) @ fetch)
  | Some _ | None -> (t, [])

let fired t ~timer ~epoch ~leader =
  match (timer, inst t epoch) with
  | Refetch, _ -> (
    match (slot t epoch).fetch with
    | Some f -> ask t epoch { f with armed = false }
    | None -> (t, []))
  | Drain, _ -> (t, submit_drain t epoch ~leader)
  | Rebootstrap, Some i when i.reboots > 0 ->
    (* Bootstrap is fire-and-forget: re-send it on a slow timer for a
       fixed window, retirement no stop signal, and re-submit the drain
       barrier from whoever leads the instance now. *)
    ( set_inst t epoch { i with reboots = i.reboots - 1 },
      bootstraps t ~epoch ~prev:i @ submit_drain t epoch ~leader
      @ [ Arm { timer = Rebootstrap; epoch; delay = 0.25 } ] )
  | Flush, Some i -> (
    let t = set_inst t epoch { i with residual_buf = []; flushing = false } in
    match (List.rev i.residual_buf, inst t (epoch + 1)) with
    | [], _ | _, Some { retired = true; _ } -> (t, [])
    | values, Some _ -> (t, [ Submit { epoch = epoch + 1; values } ])
    | values, None -> (
      (* Not in the next configuration: the batch goes as one static
         message to its boot leader, whose instance the Bootstrap sent on
         the same link at the wedge has created. *)
      match boot_leader i.next_members with
      | Some dst -> (t, [ Forward { dst; epoch = epoch + 1; values } ])
      | None -> (t, [])))
  | Announce, Some ({ retired = false; announced = false; _ } as i) ->
    if i.activated && leader then
      ( set_inst t epoch { i with announced = true },
        [ Send { dst = t.dir;
                 msg = Wire.Dir_update { epoch; members = i.members; leader = Some t.me } };
          Publish { epoch; members = i.members; leader = Some t.me } ] )
    else (t, [ Arm { timer = Announce; epoch; delay = 0.05 } ])
  | (Rebootstrap | Flush | Announce), (Some _ | None) -> (t, [])

let step t = function
  | Bootstrap { epoch; members; prev_members } -> (
    (* An empty member list is garbage, not a configuration; an epoch
       hosted or retired is created once. *)
    match (members, inst t epoch) with
    | [], _ | _, Some _ -> (t, [])
    | _, None -> create_inst t epoch ~members ~prev_members)
  | Early { epoch; src; data } -> (
    match inst t epoch with
    | Some ({ retired = false; started = false; _ } as i)
      when List.compare_length_with i.early early_cap < 0 ->
      (set_inst t epoch { i with early = (src, data) :: i.early }, [])
    | Some _ | None -> (t, []))
  | Decided { epoch; idx; value } -> (
    match inst t epoch with
    | Some ({ activated = false; _ } as i) ->
      (set_inst t epoch { i with spec_buf = (idx, value) :: i.spec_buf }, [])
    | Some _ | None -> (t, []))
  | Wedge { epoch; idx; members; snapshot; leader } ->
    wedge t epoch ~idx ~members ~snapshot ~leader
  | Residual { epoch; value; leader } -> (
    (* Only the old instance's leader re-submits, to avoid an n-fold
       duplicate storm.  Residuals decided in one engine step cross the
       epoch boundary as one batch, flushed from a zero-delay timer. *)
    match inst t epoch with
    | Some i when leader && t.resubmit ->
      ( set_inst t epoch { i with residual_buf = value :: i.residual_buf; flushing = true },
        Resubmitted
        :: (if i.flushing then [] else [ Arm { timer = Flush; epoch; delay = 0.0 } ]) )
    | Some _ | None -> (t, []))
  | Drained { epoch; leader } -> (
    (* A halted leader sends no further commit notices, so it tells the
       other members to halt. *)
    match inst t epoch with
    | Some ({ retired = false; _ } as i) ->
      let tell dst = Send { dst; msg = Wire.Retire { epoch = epoch + 1 } } in
      let t, halt = retire t epoch in
      (t, (if leader then List.map tell (others t.me i.members) else []) @ halt)
    | Some _ | None -> (t, []))
  | Retire below ->
    Imap.fold
      (fun e s (t, effects) ->
        match s.inst with
        | Some { retired = false; _ } when e < below ->
          let t, more = retire t e in
          (t, effects @ more)
        | Some _ | None -> (t, effects))
      t.slots (t, [])
  | Fetch { src; epoch } -> (
    let donate d = (update t epoch (fun s -> { s with donation = Some d }), []) in
    match (slot t epoch).donation with
    | Some (Ready { members; snapshot }) when mem src members ->
      (t, [ Send_snapshot { dst = src; epoch; snapshot } ])
    | Some (Asked waiting) when not (mem src waiting) -> donate (Asked (src :: waiting))
    | None -> donate (Asked [ src ])
    | Some (Ready _ | Asked _) -> (t, []))
  | Chunk { epoch; index; total; data } ->
    let s = slot t epoch and live = live t epoch in
    if (Option.is_some s.inst && not live) || (live && Option.is_none s.fetch) then (t, [])
    else
      let f = fetch t epoch in
      let f = if f.total = total then f else { f with total; chunks = Imap.empty } in
      (* The transfer is moving: wait for it rather than ask the next donor
         for another copy.  A chunk already held counts too: a second
         donor re-sends from the first chunk. *)
      let held = 0 <= index && index < total in
      let f =
        if held && not (Imap.mem index f.chunks) then
          { f with chunks = Imap.add index data f.chunks }
        else f
      in
      let t, timer = if live && held then arm t epoch f else (put t epoch f, []) in
      (t, timer @ if live then install epoch f else [])
  | Installed epoch -> activate t epoch ~local:false
  | Rejected epoch -> (
    (* Wait for more chunks as after any chunk, then ask the next donor. *)
    match (slot t epoch).fetch with
    | Some f -> arm t epoch { f with total = 0; chunks = Imap.empty }
    | None -> (t, []))
  | Fired { timer; epoch; leader } -> fired t ~timer ~epoch ~leader

let write w t ~audit ~parts =
  let node w n = W.varint w (n : Node_id.t) in
  W.varint w t.top;
  W.list w node t.latest;
  Imap.iter
    (fun epoch s ->
      match s.donation with
      | Some (Asked waiting) ->
        W.varint w epoch; W.u8 w 0;
        W.list w node (List.sort Node_id.compare waiting)
      | Some (Ready { members; snapshot }) ->
        W.varint w epoch; W.u8 w 1;
        W.list w node members;
        W.nested w Snapshot.write snapshot
      | None -> ())
    t.slots;
  Imap.iter
    (fun epoch s ->
      Option.iter
        (fun f ->
          W.varint w epoch;
          W.list w node f.donors;
          W.varint w f.total;
          (* The indices held, ascending: their size is what arrived, not
             what a chunk's wire [total] claims. *)
          W.varint w (Imap.cardinal f.chunks);
          Imap.iter (fun index _ -> W.varint w index) f.chunks;
          W.bool w f.armed;
          W.varint w f.asked)
        s.fetch)
    t.slots;
  let stat epoch i =
    let applied_hi, digest = audit epoch in
    W.varint w epoch;
    W.bool w i.activated;
    W.option w (fun w v -> W.varint w v) i.wedged_at;
    W.zigzag w applied_hi;
    W.string w digest
  in
  fold
    (fun epoch i () ->
      if not i.retired then begin
        stat epoch i;
        W.list w node i.members;
        W.list w (fun w (src, data) -> node w src; W.string w data) i.early;
        W.list w node i.next_members;
        W.list w (fun w (idx, v) -> W.varint w idx; W.string w v) i.spec_buf;
        W.list w W.string (List.rev i.residual_buf);
        W.bool w i.flushing;
        W.bool w i.announced;
        let app, sessions, replica = parts epoch in
        W.string w app;
        W.string w sessions;
        W.option w W.string replica
      end)
    t ();
  fold (fun epoch i () -> if i.retired then stat epoch i) t ()
[@@rsmr.codec.oneway]
