type t = { mutable rev_points : (float * float) list; mutable n : int }

let create () = { rev_points = []; n = 0 }

let add t ~time v =
  t.rev_points <- (time, v) :: t.rev_points;
  t.n <- t.n + 1

let points t = List.rev t.rev_points

let bucketize t ~width =
  if width <= 0.0 then invalid_arg "Timeseries.bucketize: width must be positive";
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (time, v) ->
      let b = int_of_float (floor (time /. width)) in
      match Hashtbl.find_opt tbl b with
      | Some (c, s) -> Hashtbl.replace tbl b (c + 1, s +. v)
      | None -> Hashtbl.add tbl b (1, v))
    t.rev_points;
  Hashtbl.fold (fun b (c, s) acc -> (b, c, s) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.map (fun (b, c, s) ->
         (float_of_int b *. width, c, s /. float_of_int c))

let rate_per_bucket t ~width =
  bucketize t ~width
  |> List.map (fun (start, c, _) -> (start, float_of_int c /. width))

let max_in_window t ~lo ~hi =
  List.fold_left
    (fun acc (time, v) ->
      if time >= lo && time <= hi then
        match acc with Some m when m >= v -> acc | _ -> Some v
      else acc)
    None t.rev_points
