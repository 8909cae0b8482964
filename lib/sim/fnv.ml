(* FNV-1a, 64-bit.  The repository's one sanctioned content hash for
   protocol state: unlike [Hashtbl.hash] it has a pinned published
   definition (offset basis 0xcbf29ce484222325, prime 0x100000001b3),
   hashes every byte it is given (no depth/size truncation), and is
   independent of the OCaml heap representation — so a fingerprint
   computed from a canonical encoding is stable across runs, word
   sizes and compiler versions. *)

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let empty = offset_basis

let[@inline] step h byte = Int64.mul (Int64.logxor h (Int64.of_int byte)) prime

(* The chains are written once as inline bodies over an unboxed running
   digest: an [int64] returned from a function that is not inlined is a
   boxed allocation, so each exported function below boxes its result
   and nothing else. *)
let[@inline] chain h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := step !h (Char.code s.[i])
  done;
  !h

(* The decimal digits of [n] fed straight into the chain, most significant
   first, without building the string.  The digits are taken from [-|n|],
   which unlike [|n|] exists for [min_int]. *)
let[@inline] chain_int h n =
  let h = ref (if n < 0 then step h (Char.code '-') else h) in
  let m = if n < 0 then n else -n in
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    h := step !h (Char.code '0' - (m / !p mod 10));
    p := !p / 10
  done;
  !h

(* Fold the length in first so concatenation cannot alias:
   ["ab"] ++ ["c"] and ["a"] ++ ["bc"] chain to different digests. *)
let[@inline] chain_framed h s =
  chain (step (chain_int h (String.length s)) 0) s

let combine h s = chain h s
let combine_int h n = chain_int h n
let combine_framed h s = chain_framed h s
let combine_int_framed h n s = chain_framed (chain_int h n) s

let hash s = combine offset_basis s

let to_hex h = Printf.sprintf "%016Lx" h
