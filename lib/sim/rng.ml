(* The SplitMix64 state, unboxed in 8 bytes: through the inlined [next]
   and [mix64] it stays in a register, where a [mutable state : int64]
   field would box a fresh [int64] on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let create seed = of_state (mix64 (Int64.of_int seed))
let bits64 t = next t
let split t = of_state (next t)

(* Rejection sampling over the top bits to avoid modulo bias. *)
let rec int_draw t bound =
  let v = Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) in
  let r = v mod bound in
  if v - r + (bound - 1) >= 0 then r else int_draw t bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_draw t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11)
  /. 9007199254740992.0 (* 2^53 *)

let float t bound = bound *. unit_float t
let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = p > 0.0 && unit_float t < p

let exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let uniform_in t lo hi = lo +. float t (hi -. lo)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | x :: _ as l -> (
    match List.nth_opt l (int t (List.length l)) with
    | Some y -> y
    | None -> x (* unreachable: int t n < n *))
