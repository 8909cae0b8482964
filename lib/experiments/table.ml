type t = {
  id : string;
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
}

type experiment = {
  id : string;
  title : string;
  run : ?quick:bool -> unit -> t;
}

let make ~id ~title ~headers ?(notes = []) rows =
  { id; title; headers; rows; notes }

let cell_f v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
  else if Float.abs v >= 0.1 then Printf.sprintf "%.2f" v
  else if v = 0.0 then "0"
  else Printf.sprintf "%.4f" v

let cell_ms v =
  if Float.is_nan v then "-" else Printf.sprintf "%sms" (cell_f (v *. 1e3))

let print t =
  let all = t.headers :: t.rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)))
    all;
  let render row =
    row
    |> List.mapi (fun i c -> Printf.sprintf "%-*s" widths.(i) c)
    |> String.concat "  "
  in
  let rule =
    String.concat "--"
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  Printf.printf "\n== %s: %s ==\n" t.id t.title;
  print_endline (render t.headers);
  print_endline rule;
  List.iter (fun r -> print_endline (render r)) t.rows;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) t.notes;
  print_newline ()
