(* Reference model of [Rsmr_smr.Log]: the original growable array of
   slot records (an entry option and a commit flag per slot), kept as the
   executable specification the flat chunked log is checked against.
   Same semantics, with [set] in place of [set_at]. *)

module Log = Rsmr_smr.Log

type slot = { mutable entry : Log.entry option; mutable committed : bool }

type t = {
  mutable slots : slot array;
  mutable len : int;
  mutable committed_prefix : int;
}

let fresh_slot () = { entry = None; committed = false }
let create () = { slots = [||]; len = 0; committed_prefix = 0 }
let length t = t.len

let ensure t i =
  let cap = Array.length t.slots in
  if i >= cap then begin
    let ncap = max 64 (max (i + 1) (cap * 2)) in
    t.slots <-
      Array.init ncap (fun j -> if j < cap then t.slots.(j) else fresh_slot ())
  end;
  if i >= t.len then t.len <- i + 1

let get t i = if i < 0 || i >= t.len then None else t.slots.(i).entry

let set t i entry =
  ensure t i;
  t.slots.(i).entry <- Some entry

let is_committed t i = i >= 0 && i < t.len && t.slots.(i).committed

let advance_prefix t =
  while
    t.committed_prefix < t.len && t.slots.(t.committed_prefix).committed
  do
    t.committed_prefix <- t.committed_prefix + 1
  done

let mark_committed t i =
  ensure t i;
  t.slots.(i).committed <- true;
  advance_prefix t

let set_committed t i kind =
  ensure t i;
  (match t.slots.(i).entry with
   | Some _ when t.slots.(i).committed -> ()
   | _ ->
     t.slots.(i).entry <- Some { Log.ballot = Rsmr_smr.Ballot.zero; kind });
  t.slots.(i).committed <- true;
  advance_prefix t

let committed_prefix t = t.committed_prefix

let entries_from t lo =
  let acc = ref [] in
  for i = t.len - 1 downto max lo 0 do
    match t.slots.(i).entry with Some e -> acc := (i, e) :: !acc | None -> ()
  done;
  !acc

let committed_values t ~lo ~hi =
  let acc = ref [] in
  for i = min hi (t.len - 1) downto max lo 0 do
    if t.slots.(i).committed then
      match t.slots.(i).entry with
      | Some e -> acc := (i, e.Log.kind) :: !acc
      | None -> ()
  done;
  !acc
