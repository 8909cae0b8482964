module Smap = Map.Make (String)
module W = Codec.Writer
module R = Codec.Reader

type command =
  | Open of string * int
  | Transfer of string * string * int
  | Balance of string
  | Total

type response = Ok | Insufficient | No_account | Amount of int
type t = int Smap.t

let name = "bank"
let init () = Smap.empty

let apply t = function
  | Open (acct, amount) -> (Smap.add acct amount t, Ok)
  | Transfer (src, dst, amount) -> (
    match (Smap.find_opt src t, Smap.find_opt dst t) with
    | Some s, Some _ when String.equal src dst ->
      (* Self-transfer: legal but a no-op. *)
      if s >= amount then (t, Ok) else (t, Insufficient)
    | Some s, Some d ->
      if s >= amount then
        (Smap.add src (s - amount) (Smap.add dst (d + amount) t), Ok)
      else (t, Insufficient)
    | _ -> (t, No_account))
  | Balance acct -> (
    match Smap.find_opt acct t with
    | Some b -> (t, Amount b)
    | None -> (t, No_account))
  | Total -> (t, Amount (Smap.fold (fun _ b acc -> acc + b) t 0))

let write_command w = function
  | Open (a, n) ->
    W.u8 w 0;
    W.string w a;
    W.zigzag w n
  | Transfer (s, d, n) ->
    W.u8 w 1;
    W.string w s;
    W.string w d;
    W.zigzag w n
  | Balance a ->
    W.u8 w 2;
    W.string w a
  | Total -> W.u8 w 3

let read_command r =
  match R.u8 r with
  | 0 ->
    let a = R.string r in
    Open (a, R.zigzag r)
  | 1 ->
    let src = R.string r in
    let dst = R.string r in
    Transfer (src, dst, R.zigzag r)
  | 2 -> Balance (R.string r)
  | 3 -> Total
  | _ -> raise Codec.Truncated

let encode_command c = W.to_string write_command c

let decode_command s = read_command (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_response w = function
  | Ok -> W.u8 w 0
  | Insufficient -> W.u8 w 1
  | No_account -> W.u8 w 2
  | Amount n ->
    W.u8 w 3;
    W.zigzag w n

let read_response r =
  match R.u8 r with
  | 0 -> Ok
  | 1 -> Insufficient
  | 2 -> No_account
  | 3 -> Amount (R.zigzag r)
  | _ -> raise Codec.Truncated

let encode_response resp = W.to_string write_response resp

let decode_response s = read_response (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_snapshot w t =
  W.varint w (Smap.cardinal t);
  Smap.iter
    (fun k v ->
      W.string w k;
      W.zigzag w v)
    t

let read_snapshot r =
  let n = R.varint r in
  let rec go acc i =
    if i = n then acc
    else
      let k = R.string r in
      let v = R.zigzag r in
      go (Smap.add k v acc) (i + 1)
  in
  go Smap.empty 0

let snapshot t = W.to_string write_snapshot t
let restore s = read_snapshot (R.of_string s)

let equal_response (a : response) b = a = b

let pp_command ppf = function
  | Open (a, n) -> Format.fprintf ppf "open(%s,%d)" a n
  | Transfer (s, d, n) -> Format.fprintf ppf "transfer(%s->%s,%d)" s d n
  | Balance a -> Format.fprintf ppf "balance(%s)" a
  | Total -> Format.pp_print_string ppf "total"

let pp_response ppf = function
  | Ok -> Format.pp_print_string ppf "ok"
  | Insufficient -> Format.pp_print_string ppf "insufficient"
  | No_account -> Format.pp_print_string ppf "no-account"
  | Amount n -> Format.fprintf ppf "amount(%d)" n

let total t = Smap.fold (fun _ b acc -> acc + b) t 0
