(* Samples in arrival order in two unboxed float arrays, the first [n]
   cells live; both double together when full. *)
type t = {
  mutable times : float array;
  mutable values : float array;
  mutable n : int;
}

let create () = { times = [||]; values = [||]; n = 0 }

let grow t =
  let cap = max 64 (2 * t.n) in
  let times = Array.make cap 0.0 and values = Array.make cap 0.0 in
  Array.blit t.times 0 times 0 t.n;
  Array.blit t.values 0 values 0 t.n;
  t.times <- times;
  t.values <- values

let add t ~time v =
  if t.n = Array.length t.times then grow t;
  t.times.(t.n) <- time;
  t.values.(t.n) <- v;
  t.n <- t.n + 1

let points t = List.init t.n (fun i -> (t.times.(i), t.values.(i)))

(* Newest first, the order the readers have always folded in: float sums
   depend on it, bit for bit. *)
let bucketize t ~width =
  if width <= 0.0 then invalid_arg "Timeseries.bucketize: width must be positive";
  let tbl = Hashtbl.create 64 in
  for i = t.n - 1 downto 0 do
    let v = t.values.(i) in
    let b = int_of_float (floor (t.times.(i) /. width)) in
    match Hashtbl.find_opt tbl b with
    | Some (c, s) -> Hashtbl.replace tbl b (c + 1, s +. v)
    | None -> Hashtbl.add tbl b (1, v)
  done;
  Hashtbl.fold (fun b (c, s) acc -> (b, c, s) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (b, c, s) ->
         (float_of_int b *. width, c, s /. float_of_int c))

let rate_per_bucket t ~width =
  bucketize t ~width
  |> List.map (fun (start, c, _) -> (start, float_of_int c /. width))

let max_in_window t ~lo ~hi =
  let acc = ref None in
  for i = t.n - 1 downto 0 do
    let time = t.times.(i) and v = t.values.(i) in
    if time >= lo && time <= hi then
      match !acc with Some m when m >= v -> () | _ -> acc := Some v
  done;
  !acc
