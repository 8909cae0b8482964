(* Buckets are geometric: bucket i covers [lo * g^i, lo * g^(i+1)) with
   g = 1.02.  lo = 1e-7 s; values below go to bucket 0, values above the top
   go to the last bucket. *)

let growth = 1.02
let lo = 1e-7
let nbuckets = 1200 (* lo * 1.02^1200 ~ 2.1e3 s *)
let log_growth = log growth

type t = {
  buckets : int array;
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let create () =
  { buckets = Array.make nbuckets 0; n = 0; sum = 0.0; minv = infinity; maxv = neg_infinity }

let bucket_of v =
  if v <= lo then 0
  else
    let i = int_of_float (log (v /. lo) /. log_growth) in
    if i >= nbuckets then nbuckets - 1 else i

let value_of i = lo *. (growth ** (float_of_int i +. 0.5))

let record t v =
  let v = if v < 0.0 then 0.0 else v in
  let i = bucket_of v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v < t.minv then t.minv <- v;
  if v > t.maxv then t.maxv <- v

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
let min_value t = if t.n = 0 then 0.0 else t.minv
let max_value t = if t.n = 0 then 0.0 else t.maxv

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let target =
      let x = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
      if x < 1 then 1 else if x > t.n then t.n else x
    in
    let acc = ref 0 and result = ref t.maxv in
    (try
       for i = 0 to nbuckets - 1 do
         acc := !acc + t.buckets.(i);
         if !acc >= target then begin
           result := value_of i;
           raise Exit
         end
       done
     with Exit -> ());
    (* A bucket's midpoint can lie outside the values it holds. *)
    Float.min t.maxv (Float.max t.minv !result)
  end

let pp_summary ppf t =
  if t.n = 0 then Format.pp_print_string ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.2fms p50=%.2fms p99=%.2fms max=%.2fms" t.n
      (mean t *. 1e3)
      (percentile t 50.0 *. 1e3)
      (percentile t 99.0 *. 1e3)
      (max_value t *. 1e3)
