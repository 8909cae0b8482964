(* Reference model of [Rsmr_core.Session]: the original persistent
   implementation over balanced maps, kept as the executable
   specification the mutable table is checked against.  Same semantics,
   same bytes. *)

module W = Rsmr_app.Codec.Writer
module Cmap = Rsmr_net.Node_id.Map
module Imap = Map.Make (Int)

type entry = { floor : int; responses : string Imap.t }
type t = entry Cmap.t

let empty = Cmap.empty
let fresh = { floor = -1; responses = Imap.empty }

let check t ~client ~seq =
  match Cmap.find_opt client t with
  | None -> `New
  | Some e ->
    if seq <= e.floor then `Stale
    else (
      match Imap.find_opt seq e.responses with
      | Some rsp -> `Dup rsp
      | None -> `New)

let record t ~client ~seq ~rsp =
  let e = Option.value (Cmap.find_opt client t) ~default:fresh in
  Cmap.add client { e with responses = Imap.add seq rsp e.responses } t

let trim t ~client ~below =
  match Cmap.find_opt client t with
  | None -> t
  | Some e ->
    let floor = max e.floor (below - 1) in
    let _, _, above = Imap.split floor e.responses in
    Cmap.add client { floor; responses = above } t

let cardinal t = Cmap.fold (fun _ e acc -> acc + Imap.cardinal e.responses) t 0

let encode t =
  let w = W.create ~size_hint:256 () in
  W.varint w (Cmap.cardinal t);
  Cmap.iter
    (fun client e ->
      W.zigzag w client;
      W.zigzag w e.floor;
      W.varint w (Imap.cardinal e.responses);
      Imap.iter
        (fun seq rsp ->
          W.varint w seq;
          W.string w rsp)
        e.responses)
    t;
  W.contents w
