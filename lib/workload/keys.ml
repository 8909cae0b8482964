type t = Uniform of int | Zipf of { n : int; cdf : float array }

let uniform ~n =
  if n <= 0 then invalid_arg "Keys.uniform: n must be positive";
  Uniform n

let zipf ~n ~theta =
  if n <= 0 then invalid_arg "Keys.zipf: n must be positive";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  Zipf { n; cdf }

let sample t rng =
  match t with
  | Uniform n -> Rsmr_sim.Rng.int rng n
  | Zipf { n; cdf } ->
    let u = Rsmr_sim.Rng.float rng 1.0 in
    (* Binary search for the first index with cdf >= u. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo

(* "key" and the decimal digits of [i], zero-padded to 8: byte for byte
   [Printf.sprintf "key%08d" i], allocating only the result. *)
let key_name i =
  if i < 0 then invalid_arg "Keys.key_name: negative index";
  let digits = ref 1 and rest = ref (i / 10) in
  while !rest > 0 do
    incr digits;
    rest := !rest / 10
  done;
  let len = 3 + max 8 !digits in
  let b = Bytes.make len '0' in
  Bytes.blit_string "key" 0 b 0 3;
  let v = ref i in
  for p = len - 1 downto len - !digits do
    Bytes.set b p (Char.unsafe_chr (Char.code '0' + (!v mod 10)));
    v := !v / 10
  done;
  Bytes.unsafe_to_string b
