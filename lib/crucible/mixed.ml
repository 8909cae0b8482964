module Codec = Rsmr_app.Codec
module W = Codec.Writer
module R = Codec.Reader
module Register = Rsmr_app.Register
module Kv = Rsmr_app.Kv
module Counter = Rsmr_app.Counter

type command =
  | Reg of Register.command
  | Kv of Kv.command
  | Cnt of Counter.command

type response =
  | Reg_r of Register.response
  | Kv_r of Kv.response
  | Cnt_r of Counter.response

type t = { reg : Register.t; kv : Kv.t; cnt : Counter.t }

let name = "mixed"
let init () = { reg = Register.init (); kv = Kv.init (); cnt = Counter.init () }

let apply t = function
  | Reg c ->
    let reg, r = Register.apply t.reg c in
    ({ t with reg }, Reg_r r)
  | Kv c ->
    let kv, r = Kv.apply t.kv c in
    ({ t with kv }, Kv_r r)
  | Cnt c ->
    let cnt, r = Counter.apply t.cnt c in
    ({ t with cnt }, Cnt_r r)

(* Each part is the inner application's own encoding, length-prefixed. *)
let write_command w = function
  | Reg c ->
    W.u8 w 0;
    W.string w (Register.encode_command c)
  | Kv c ->
    W.u8 w 1;
    W.string w (Kv.encode_command c)
  | Cnt c ->
    W.u8 w 2;
    W.string w (Counter.encode_command c)

let read_command r =
  match R.u8 r with
  | 0 -> Reg (R.framed r Register.read_command)
  | 1 -> Kv (R.framed r Kv.read_command)
  | 2 -> Cnt (R.framed r Counter.read_command)
  | _ -> raise Codec.Truncated

let encode_command c = W.to_string write_command c

let decode_command s = read_command (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_response w = function
  | Reg_r r ->
    W.u8 w 0;
    W.string w (Register.encode_response r)
  | Kv_r r ->
    W.u8 w 1;
    W.string w (Kv.encode_response r)
  | Cnt_r r ->
    W.u8 w 2;
    W.string w (Counter.encode_response r)

let read_response r =
  match R.u8 r with
  | 0 -> Reg_r (Register.decode_response (R.string r))
  | 1 -> Kv_r (Kv.decode_response (R.string r))
  | 2 -> Cnt_r (Counter.decode_response (R.string r))
  | _ -> raise Codec.Truncated

let encode_response rsp = W.to_string write_response rsp

let decode_response s = read_response (R.of_string s)
[@@rsmr.deterministic] [@@rsmr.total]

let write_snapshot w t =
  W.string w (Register.snapshot t.reg);
  W.string w (Kv.snapshot t.kv);
  W.string w (Counter.snapshot t.cnt)

let read_snapshot r =
  let reg = Register.restore (R.string r) in
  let kv = Kv.restore (R.string r) in
  let cnt = Counter.restore (R.string r) in
  { reg; kv; cnt }

let snapshot t = W.to_string write_snapshot t
let restore s = read_snapshot (R.of_string s)

let equal_response a b =
  match (a, b) with
  | Reg_r x, Reg_r y -> Register.equal_response x y
  | Kv_r x, Kv_r y -> Kv.equal_response x y
  | Cnt_r x, Cnt_r y -> Counter.equal_response x y
  | (Reg_r _ | Kv_r _ | Cnt_r _), _ -> false

let pp_command ppf = function
  | Reg c -> Format.fprintf ppf "reg:%a" Register.pp_command c
  | Kv c -> Format.fprintf ppf "kv:%a" Kv.pp_command c
  | Cnt c -> Format.fprintf ppf "cnt:%a" Counter.pp_command c

let pp_response ppf = function
  | Reg_r r -> Format.fprintf ppf "reg:%a" Register.pp_response r
  | Kv_r r -> Format.fprintf ppf "kv:%a" Kv.pp_response r
  | Cnt_r r -> Format.fprintf ppf "cnt:%a" Counter.pp_response r

let counter_value t = Counter.value t.cnt

let incr_amount = function Cnt (Counter.Incr n) -> Some n | _ -> None

let incr_of_encoded cmd =
  match decode_command cmd with
  | c -> incr_amount c
  | exception Codec.Truncated -> None

let object_of_encoded cmd =
  match decode_command cmd with
  | Reg _ -> Some "reg"
  | Kv
      ( Kv.Get k | Kv.Put (k, _) | Kv.Delete k | Kv.Cas (k, _, _)
      | Kv.Append (k, _) ) ->
    Some ("kv:" ^ k)
  | Cnt _ -> Some "cnt"
  | exception Codec.Truncated -> None
