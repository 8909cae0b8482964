module Counters = Rsmr_sim.Counters
module Histogram = Rsmr_sim.Histogram
module Timeseries = Rsmr_sim.Timeseries
module Trace = Rsmr_sim.Trace
module Stable = Rsmr_sim.Stable

type labels = (string * string) list

let compare_label (ka, va) (kb, vb) =
  match String.compare ka kb with 0 -> String.compare va vb | c -> c

let canon labels = List.sort_uniq compare_label labels

let check_token what s =
  String.iter
    (fun c ->
      match c with
      | '{' | '}' | ',' | '=' ->
        invalid_arg
          (Printf.sprintf "Registry: %s %S contains reserved character %C"
             what s c)
      | _ -> ())
    s

(* Canonical cell key: name{k=v,...} with labels already sorted. *)
let encode_key name labels =
  check_token "metric name" name;
  let b = Buffer.create 32 in
  Buffer.add_string b name;
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      check_token "label key" k;
      check_token "label value" v;
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    labels;
  Buffer.add_char b '}';
  Buffer.contents b

type metric =
  | Counter of int ref
  | Hist of Histogram.t
  | Series of Timeseries.t

type cell = { c_name : string; c_labels : labels; c_metric : metric }

type t = {
  mutable md : labels;
  cells : (string, cell) Hashtbl.t;
  bus : Trace.t;
}

let create ?(meta = []) () =
  {
    md = canon meta;
    cells = Hashtbl.create 64;
    bus = Trace.create ();
  }

let set_meta t k v = t.md <- canon ((k, v) :: List.remove_assoc k t.md)
let meta t = t.md
let bus t = t.bus

let kind_name = function
  | Counter _ -> "counter"
  | Hist _ -> "histogram"
  | Series _ -> "series"

let mismatch key m want =
  invalid_arg
    (Printf.sprintf "Registry: %s already registered as a %s, not a %s" key
       (kind_name m) want)

let new_cell t key name labels m =
  Hashtbl.add t.cells key { c_name = name; c_labels = labels; c_metric = m };
  m

let counter ?(labels = []) t name =
  let labels = canon labels in
  let key = encode_key name labels in
  match Hashtbl.find_opt t.cells key with
  | Some { c_metric = Counter r; _ } -> r
  | Some { c_metric = m; _ } -> mismatch key m "counter"
  | None -> (
    match new_cell t key name labels (Counter (ref 0)) with
    | Counter r -> r
    | m -> mismatch key m "counter")

let histogram ?(labels = []) t name =
  let labels = canon labels in
  let key = encode_key name labels in
  match Hashtbl.find_opt t.cells key with
  | Some { c_metric = Hist h; _ } -> h
  | Some { c_metric = m; _ } -> mismatch key m "histogram"
  | None -> (
    match new_cell t key name labels (Hist (Histogram.create ())) with
    | Hist h -> h
    | m -> mismatch key m "histogram")

let series ?(labels = []) t name =
  let labels = canon labels in
  let key = encode_key name labels in
  match Hashtbl.find_opt t.cells key with
  | Some { c_metric = Series s; _ } -> s
  | Some { c_metric = m; _ } -> mismatch key m "series"
  | None -> (
    match new_cell t key name labels (Series (Timeseries.create ())) with
    | Series s -> s
    | m -> mismatch key m "series")

(* --- scopes --- *)

(* [memo] caches name -> cell, so a bump through the scope costs one
   table lookup instead of re-encoding the cell key. *)
type scope = { reg : t; sc : labels; memo : (string, int ref) Hashtbl.t }

let scope ?node ?epoch ?(labels = []) t =
  let l = labels in
  let l =
    match epoch with Some e -> ("epoch", string_of_int e) :: l | None -> l
  in
  let l =
    match node with Some n -> ("node", string_of_int n) :: l | None -> l
  in
  { reg = t; sc = canon l; memo = Hashtbl.create 8 }

let scope_counter s name =
  match Hashtbl.find_opt s.memo name with
  | Some r -> r
  | None ->
    let r = counter ~labels:s.sc s.reg name in
    Hashtbl.add s.memo name r;
    r

(* --- section views --- *)

(* Cells labelled exactly {section}, under their own name, and cells
   labelled {msg_type; section}, under the dotted key name.msg_type. *)
let counters t section =
  Counters.make (fun () ->
      Stable.fold_sorted ~compare:String.compare
        (fun _ c acc ->
          match (c.c_metric, c.c_labels) with
          | Counter r, [ ("section", s) ] when String.equal s section ->
            (c.c_name, !r) :: acc
          | Counter r, [ ("msg_type", m); ("section", s) ]
            when String.equal s section ->
            (c.c_name ^ "." ^ m, !r) :: acc
          | _ -> acc)
        t.cells [])

let sorted_cells t =
  Stable.fold_sorted ~compare:String.compare (fun _ c acc -> c :: acc) t.cells
    []
  |> List.rev

(* --- export --- *)

let buf_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_float b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" f)
  else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
  else Buffer.add_string b "0.0"

let buf_labels b labels =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_json_string b k;
      Buffer.add_char b ':';
      buf_json_string b v)
    labels;
  Buffer.add_char b '}'

type flat_counter = { f_name : string; f_labels : labels; f_value : int }

(* Cells sort by key "name{labels}", which puts "sent_x{..}" before
   "sent{..}"; the stable re-sort by name restores (name, labels) order. *)
let flat_counters t =
  List.filter_map
    (fun c ->
      match c.c_metric with
      | Counter r -> Some { f_name = c.c_name; f_labels = c.c_labels; f_value = !r }
      | Hist _ | Series _ -> None)
    (sorted_cells t)
  |> List.stable_sort (fun a b -> String.compare a.f_name b.f_name)

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"rsmr-metrics/1\",\n  \"meta\": ";
  buf_labels b t.md;
  Buffer.add_string b ",\n  \"counters\": [";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n    "
  in
  List.iter
    (fun f ->
      sep ();
      Buffer.add_string b "{\"name\":";
      buf_json_string b f.f_name;
      Buffer.add_string b ",\"labels\":";
      buf_labels b f.f_labels;
      Buffer.add_string b (Printf.sprintf ",\"value\":%d}" f.f_value))
    (flat_counters t);
  Buffer.add_string b "\n  ],\n  \"histograms\": [";
  first := true;
  List.iter
    (fun c ->
      match c.c_metric with
      | Hist h ->
        sep ();
        Buffer.add_string b "{\"name\":";
        buf_json_string b c.c_name;
        Buffer.add_string b ",\"labels\":";
        buf_labels b c.c_labels;
        Buffer.add_string b (Printf.sprintf ",\"count\":%d" (Histogram.count h));
        List.iter
          (fun (k, v) ->
            Buffer.add_string b (Printf.sprintf ",\"%s\":" k);
            buf_float b v)
          [
            ("mean", Histogram.mean h);
            ("min", Histogram.min_value h);
            ("max", Histogram.max_value h);
            ("p50", Histogram.percentile h 50.0);
            ("p90", Histogram.percentile h 90.0);
            ("p99", Histogram.percentile h 99.0);
          ];
        Buffer.add_char b '}'
      | Counter _ | Series _ -> ())
    (sorted_cells t);
  Buffer.add_string b "\n  ],\n  \"series\": [";
  first := true;
  List.iter
    (fun c ->
      match c.c_metric with
      | Series s ->
        sep ();
        Buffer.add_string b "{\"name\":";
        buf_json_string b c.c_name;
        Buffer.add_string b ",\"labels\":";
        buf_labels b c.c_labels;
        Buffer.add_string b ",\"points\":[";
        List.iteri
          (fun i (time, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '[';
            buf_float b time;
            Buffer.add_char b ',';
            buf_float b v;
            Buffer.add_char b ']')
          (Timeseries.points s);
        Buffer.add_string b "]}"
      | Counter _ | Hist _ -> ())
    (sorted_cells t);
  Buffer.add_string b "\n  ]\n}";
  Buffer.contents b

let save t ~path =
  let oc = open_out path in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc
