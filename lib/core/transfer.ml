module Node_id = Rsmr_net.Node_id
module Imap = Map.Make (Int)
module W = Rsmr_app.Codec.Writer

let fetch_timeout = 0.25
let boot_leader members = List.nth_opt (List.sort Node_id.compare members) 0
let mem n l = List.exists (Node_id.equal n) l

let donor_order ~me ~members ~prev_members =
  let others = List.filter (fun m -> not (Node_id.equal m me)) prev_members in
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

type t = {
  me : Node_id.t;
  push : bool;
  donations : donation Imap.t;
  fetches : fetch Imap.t;
}

type input =
  | Wedged of {
      epoch : int; members : Node_id.t list;
      prev_members : Node_id.t list; snapshot : Snapshot.t }
  | Awaiting of {
      epoch : int; members : Node_id.t list;
      prev_members : Node_id.t list; prev_live : bool }
  | Fetch of { src : Node_id.t; epoch : int }
  | Chunk of {
      epoch : int; index : int; total : int; data : string;
      live : bool; retired : bool }
  | Timer of int
  | Activated of int
  | Retired of { epoch : int; wedged : bool; next_live : bool }
  | Rejected of int

type effect_ =
  | Send_snapshot of {
      dst : Node_id.t; epoch : int; snapshot : Snapshot.t; push : bool }
  | Send_fetch of { dst : Node_id.t; epoch : int }
  | Arm_timer of int
  | Cancel_timer of int
  | Install of { epoch : int; chunks : string list }

let create ~me ~transfer =
  { me; push = transfer = `Push; donations = Imap.empty; fetches = Imap.empty }

(* Under push, a member new to the configuration is sent the snapshot at
   the wedge, unasked, by the donor its fetch would ask first. *)
let pushed t ~joiner ~prev_members = t.push && not (mem joiner prev_members)

let put t epoch f = { t with fetches = Imap.add epoch f t.fetches }
let arm t epoch f = (put t epoch { f with armed = true }, [ Arm_timer epoch ])

(* Ask the next donor, and wait one [fetch_timeout] for its chunks. *)
let ask t epoch f =
  match nth_donor ~me:t.me f.donors f.asked with
  | None -> (put t epoch f, [])
  | Some dst ->
    let t, timer = arm t epoch { f with asked = f.asked + 1 } in
    (t, Send_fetch { dst; epoch } :: timer)

let install epoch f =
  if f.total > 0 && Imap.cardinal f.chunks = f.total then
    [ Install { epoch; chunks = List.map snd (Imap.bindings f.chunks) } ]
  else []

let drop t epoch =
  if Imap.mem epoch t.fetches then
    ({ t with fetches = Imap.remove epoch t.fetches }, [ Cancel_timer epoch ])
  else (t, [])

let fresh = { donors = []; total = 0; chunks = Imap.empty; armed = false; asked = 0 }
let fetch t epoch = Option.value (Imap.find_opt epoch t.fetches) ~default:fresh

let step t = function
  | Wedged { epoch; members; prev_members; snapshot } ->
    let served =
      match Imap.find_opt epoch t.donations with
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
    let send push dst = Send_snapshot { dst; epoch; snapshot; push } in
    ( { t with donations = Imap.add epoch (Ready { members; snapshot }) t.donations },
      List.map (send false) served @ List.map (send true) pushes )
  | Awaiting { epoch; members; prev_members; prev_live } -> (
    let donors = donor_order ~me:t.me ~members ~prev_members in
    let f = { (fetch t epoch) with donors } in
    match install epoch f with
    | _ :: _ as done_ -> (put t epoch f, done_)
    | [] when prev_live -> arm t epoch f
    | [] when pushed t ~joiner:t.me ~prev_members -> arm t epoch { f with asked = 1 }
    | [] -> ask t epoch f)
  | Fetch { src; epoch } -> (
    let donate d = ({ t with donations = Imap.add epoch d t.donations }, []) in
    match Imap.find_opt epoch t.donations with
    | Some (Ready { members; snapshot }) when mem src members ->
      (t, [ Send_snapshot { dst = src; epoch; snapshot; push = false } ])
    | Some (Asked waiting) when not (mem src waiting) ->
      donate (Asked (src :: waiting))
    | None -> donate (Asked [ src ])
    | Some (Ready _ | Asked _) -> (t, []))
  | Chunk { epoch; index; total; data; live; retired } ->
    if retired || (live && not (Imap.mem epoch t.fetches)) then (t, [])
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
  | Timer epoch -> (
    match Imap.find_opt epoch t.fetches with
    | Some f -> ask t epoch { f with armed = false }
    | None -> (t, []))
  | Activated epoch -> drop t epoch
  | Retired { epoch; wedged; next_live } -> (
    (* Gone unwedged (it lagged, then got [Retire]): no local handoff is
       coming, so a next instance that asked nobody yet fetches now. *)
    let t, cancel = drop t epoch in
    let t = { t with donations = Imap.filter (fun e _ -> e >= epoch) t.donations } in
    match Imap.find_opt (epoch + 1) t.fetches with
    | Some f when (not wedged) && next_live && f.asked = 0 ->
      let t, fetch = ask t (epoch + 1) f in
      (t, cancel @ fetch)
    | Some _ | None -> (t, cancel))
  | Rejected epoch -> (
    (* Wait for more chunks as after any chunk, then ask the next donor. *)
    match Imap.find_opt epoch t.fetches with
    | Some f -> arm t epoch { f with total = 0; chunks = Imap.empty }
    | None -> (t, []))

let write w t =
  let node w n = W.varint w (n : Node_id.t) in
  Imap.iter
    (fun epoch d ->
      W.varint w epoch;
      match d with
      | Asked waiting ->
        W.u8 w 0;
        W.list w node (List.sort Node_id.compare waiting)
      | Ready { members; snapshot } ->
        W.u8 w 1;
        W.list w node members;
        W.nested w Snapshot.write snapshot)
    t.donations;
  Imap.iter
    (fun epoch f ->
      W.varint w epoch;
      W.list w node f.donors;
      W.varint w f.total;
      (* The indices held, ascending: given [total] they name the same set
         as one flag per index below it, but their size is what arrived,
         not what a chunk's wire [total] claims. *)
      W.varint w (Imap.cardinal f.chunks);
      Imap.iter (fun index _ -> W.varint w index) f.chunks;
      W.bool w f.armed;
      W.varint w f.asked)
    t.fetches
[@@rsmr.codec.oneway]
