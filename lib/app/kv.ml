module W = Codec.Writer
module R = Codec.Reader

type command =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of string * string option * string
  | Append of string * string

type response = Value of string option | Ok | Cas_result of bool

(* FNV-1a over the key's bytes, with the high bits folded down into the
   low ones that pick a bucket.  Explicit, so bucket placement does not
   depend on the runtime's polymorphic hash. *)
let hash_key k =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length k - 1 do
    h := (!h lxor Char.code (String.unsafe_get k i)) * 0x01000193
  done;
  (!h lxor (!h lsr 29)) land max_int

module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = hash_key
end)

(* A fully persistent store by rerooting (Baker; Conchon and Filliatre's
   persistent arrays).  One mutable table holds the version that is
   [Current]; every other version is an undo record against a newer one:
   [Set (k, v, newer)] is [newer] with [k] bound to [v], [Unset (k,
   newer)] is [newer] without [k].  Any read or write of a version first
   reroots the table to it, flipping the records on the way, so a chain
   of applies to the newest version never reroots and a step back costs
   one flip.  [sorted] caches the table's keys in snapshot order; a change
   to the key set clears it. *)
type store = { tbl : string Tbl.t; mutable sorted : string array option }

type node = Current of store | Set of string * string * t | Unset of string * t
and t = node ref

let name = "kv"
let init () = ref (Current { tbl = Tbl.create 16; sorted = Some [||] })

(* The undo record that gives [k] back its binding in the current table,
   against [newer]; an unbound [k] is about to join the key set. *)
let undo s k newer =
  try Set (k, Tbl.find s.tbl k, newer)
  with Not_found ->
    s.sorted <- None;
    Unset (k, newer)

(* Make [v], whose newer neighbour holds the table, the current version;
   the neighbour becomes [v]'s inverse undo record. *)
let flip s v =
  match !v with
  | Current _ -> ()
  | Set (k, old, newer) ->
    let cur = !newer in
    newer := undo s k v;
    Tbl.replace s.tbl k old;
    v := cur
  | Unset (k, newer) ->
    let cur = !newer in
    newer := undo s k v;
    Tbl.remove s.tbl k;
    s.sorted <- None;
    v := cur

(* Iterative, so a long-held old version cannot exhaust the stack: the
   path to the current version is collected first, nearest to it at the
   head, then flipped in that order. *)
let reroot t =
  let rec path acc v =
    match !v with
    | Current s -> (s, acc)
    | Set (_, _, newer) | Unset (_, newer) -> path (v :: acc) newer
  in
  match !t with
  | Current s -> s
  | Set _ | Unset _ ->
    let s, vs = path [] t in
    List.iter (flip s) vs;
    s

(* Writes to the current version [t]: [t] becomes the undo record of the
   new version, which takes over [t]'s [Current] node. *)
let set s t k v =
  let newer = ref !t in
  t := undo s k newer;
  Tbl.replace s.tbl k v;
  newer

let remove s t k =
  if not (Tbl.mem s.tbl k) then t
  else begin
    let newer = ref !t in
    t := undo s k newer;
    Tbl.remove s.tbl k;
    s.sorted <- None;
    newer
  end

let apply t cmd =
  let s = reroot t in
  match cmd with
  | Get k -> (t, Value (Tbl.find_opt s.tbl k))
  | Put (k, v) -> (set s t k v, Ok)
  | Delete k -> (remove s t k, Ok)
  | Cas (k, expected, v) ->
    if Option.equal String.equal (Tbl.find_opt s.tbl k) expected then
      (set s t k v, Cas_result true)
    else (t, Cas_result false)
  | Append (k, v) ->
    let current = try Tbl.find s.tbl k with Not_found -> "" in
    (set s t k (current ^ v), Ok)

let write_command w = function
  | Get k ->
    W.u8 w 0;
    W.string w k
  | Put (k, v) ->
    W.u8 w 1;
    W.string w k;
    W.string w v
  | Delete k ->
    W.u8 w 2;
    W.string w k
  | Cas (k, e, v) ->
    W.u8 w 3;
    W.string w k;
    W.option w W.string e;
    W.string w v
  | Append (k, v) ->
    W.u8 w 4;
    W.string w k;
    W.string w v

let read_command r =
  match R.u8 r with
  | 0 -> Get (R.string r)
  | 1 ->
    let k = R.string r in
    Put (k, R.string r)
  | 2 -> Delete (R.string r)
  | 3 ->
    let k = R.string r in
    let e = R.option r R.string in
    Cas (k, e, R.string r)
  | 4 ->
    let k = R.string r in
    Append (k, R.string r)
  | _ -> raise Codec.Truncated

let encode_command c = W.to_string write_command c

let decode_command s = read_command (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_response w = function
  | Value v ->
    W.u8 w 0;
    W.option w W.string v
  | Ok -> W.u8 w 1
  | Cas_result b ->
    W.u8 w 2;
    W.bool w b

let read_response r =
  match R.u8 r with
  | 0 -> Value (R.option r R.string)
  | 1 -> Ok
  | 2 -> Cas_result (R.bool r)
  | _ -> raise Codec.Truncated

(* The replies without a payload are the same bytes every time. *)
let ok_bytes = W.to_string write_response Ok
let none_bytes = W.to_string write_response (Value None)
let cas_true_bytes = W.to_string write_response (Cas_result true)
let cas_false_bytes = W.to_string write_response (Cas_result false)

let encode_response = function
  | Ok -> ok_bytes
  | Value None -> none_bytes
  | Cas_result true -> cas_true_bytes
  | Cas_result false -> cas_false_bytes
  | Value (Some _) as resp -> W.to_string write_response resp

let decode_response s = read_response (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

(* The keys in snapshot order, sorted once per change to the key set. *)
let sorted_keys s =
  match s.sorted with
  | Some keys -> keys
  | None ->
    let keys = Array.make (Tbl.length s.tbl) "" in
    let (_ : int) =
      (* lint: order-insensitive — it only fills the array the sort orders *)
      Tbl.fold
        (fun k _ i ->
          keys.(i) <- k;
          i + 1)
        s.tbl 0
    in
    Array.sort String.compare keys;
    s.sorted <- Some keys;
    keys
[@@rsmr.assume_deterministic]

(* [snapshot]'s scratch, one for every store as the writer's sink is: the
   values of the keys being written, looked up once for both of
   [Writer.to_string]'s passes.  It only grows, and it is cleared after
   each snapshot so that it keeps no value alive. *)
let values = ref [||]

let write_snapshot w s =
  let keys = sorted_keys s in
  W.varint w (Array.length keys);
  for i = 0 to Array.length keys - 1 do
    W.string w keys.(i);
    W.string w !values.(i)
  done

(* A later binding of a key replaces an earlier one.  Keys that come
   strictly increasing, as [write_snapshot] writes them, are kept as the
   sorted-key cache. *)
let read_snapshot r =
  let n = R.varint r in
  let tbl = Tbl.create (min n 65536) in
  let keys = ref (Array.make (min n 1024) "") in
  let in_order = ref true in
  for i = 0 to n - 1 do
    let k = R.string r in
    let v = R.string r in
    if !in_order then
      if i > 0 && String.compare !keys.(i - 1) k >= 0 then in_order := false
      else begin
        if i = Array.length !keys then begin
          let grown = Array.make (min n (2 * i)) "" in
          Array.blit !keys 0 grown 0 i;
          keys := grown
        end;
        !keys.(i) <- k
      end;
    Tbl.replace tbl k v
  done;
  let sorted = if !in_order then Some !keys else None in
  ref (Current { tbl; sorted })

let snapshot t =
  let s = reroot t in
  let keys = sorted_keys s in
  let n = Array.length keys in
  if Array.length !values < n then values := Array.make n "";
  for i = 0 to n - 1 do
    (* Every cached key is bound. *)
    !values.(i) <- (try Tbl.find s.tbl keys.(i) with Not_found -> "")
  done;
  let bytes = W.to_string write_snapshot s in
  Array.fill !values 0 n "";
  bytes

let restore s = read_snapshot (R.of_string s)

let equal_response (a : response) b = a = b

let pp_command ppf = function
  | Get k -> Format.fprintf ppf "get(%s)" k
  | Put (k, v) -> Format.fprintf ppf "put(%s,%s)" k v
  | Delete k -> Format.fprintf ppf "del(%s)" k
  | Cas (k, e, v) ->
    Format.fprintf ppf "cas(%s,%a,%s)" k
      (Format.pp_print_option Format.pp_print_string)
      e v
  | Append (k, v) -> Format.fprintf ppf "append(%s,%s)" k v

let pp_response ppf = function
  | Value v ->
    Format.fprintf ppf "value(%a)"
      (Format.pp_print_option Format.pp_print_string)
      v
  | Ok -> Format.pp_print_string ppf "ok"
  | Cas_result b -> Format.fprintf ppf "cas(%b)" b

let cardinal t = Tbl.length (reroot t).tbl
let find t k = Tbl.find_opt (reroot t).tbl k
