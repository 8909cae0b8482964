type prim = U8 | Varint | Zigzag | Bool | Float

type t =
  | Prim of prim
  | Const of int
  | Framed of string option
  | Opt of t list
  | Rep of t list
  | Loop of t list
  | Call of string
  | Branch of t list list
  | Switch of switch
  | Opaque of string

and switch = {
  sw_tag : prim option;
  sw_cases : case list;
  sw_default : default;
}

and case = { c_tag : int option; c_label : string; c_items : t list }
and default = No_default | Truncates | Default_other of string

type finding = {
  f_rule : string;
  f_loc : Location.t;
  f_alt_file : string option;
  f_msg : string;
  f_chain : string list;
}

let finding ?alt_file ~rule loc msg ?(chain = []) () =
  { f_rule = rule; f_loc = loc; f_alt_file = alt_file; f_msg = msg;
    f_chain = chain }

let prim_name = function
  | U8 -> "u8"
  | Varint -> "varint"
  | Zigzag -> "zigzag"
  | Bool -> "bool"
  | Float -> "float"

let rec to_string = function
  | Prim p -> prim_name p
  | Const n -> Printf.sprintf "u8 %d" n
  | Framed None -> "bytes"
  | Framed (Some k) -> Printf.sprintf "bytes<%s>" k
  | Opt sub -> Printf.sprintf "option(%s)" (render sub)
  | Rep sub -> Printf.sprintf "list(%s)" (render sub)
  | Loop sub -> Printf.sprintf "loop(%s)" (render sub)
  | Call k -> Printf.sprintf "call(%s)" k
  | Branch alts ->
    Printf.sprintf "branch(%s)" (String.concat " | " (List.map render alts))
  | Switch sw ->
    Printf.sprintf "switch{%s}"
      (String.concat ","
         (List.map
            (fun c ->
              match c.c_tag with
              | Some n -> string_of_int n
              | None -> c.c_label)
            sw.sw_cases))
  | Opaque what -> Printf.sprintf "opaque:%s" what

and render = function
  | [] -> "\xce\xb5" (* ε *)
  | items -> String.concat " \xc2\xb7 " (List.map to_string items)

let int_cases cases =
  cases <> [] && List.for_all (fun c -> c.c_tag <> None) cases

(* [let tag = R.u8 r in match tag with ...] lifts to a [Prim] followed
   by a tagless int switch; fuse them so the idiom compares equal to
   [match R.u8 r with ...]. *)
let rec fuse_tag = function
  | Prim p :: Switch ({ sw_tag = None; sw_cases; _ } as sw) :: rest
    when int_cases sw_cases ->
    Switch { sw with sw_tag = Some p } :: fuse_tag rest
  | x :: rest -> x :: fuse_tag rest
  | [] -> []

let rec normalize items = fuse_tag (List.concat_map norm1 items)

and norm1 = function
  | Rep sub -> [ Prim Varint; Loop (norm_loop sub) ]
  | Opt sub -> [ Opt (normalize sub) ]
  | Loop sub -> [ Loop (norm_loop sub) ]
  | Branch alts -> (
    match List.map normalize alts with
    | [] -> []
    | a :: rest when List.for_all (fun b -> b = a) rest -> a
    | alts -> [ Branch alts ])
  | Switch { sw_tag = None; sw_cases = c :: rest; sw_default = No_default }
    when List.for_all (fun c' -> c'.c_tag = None) (c :: rest)
         &&
         let items = normalize c.c_items in
         (match items with Const _ :: _ -> false | _ -> true)
         && List.for_all (fun c' -> normalize c'.c_items = items) rest ->
    (* a constructor dispatch whose cases all write the same bytes (a
       single constructor, or shared constant encodings) carries no
       information on the wire — unless the cases still write a tag
       byte, which must stay a switch for tag-set checking *)
    normalize c.c_items
  | Switch sw ->
    [
      Switch
        {
          sw with
          sw_cases =
            List.map
              (fun c -> { c with c_items = normalize c.c_items })
              sw.sw_cases;
        };
    ]
  | x -> [ x ]

(* A [let rec] decode loop lifts to [Branch [stop; step]] with the stop
   arm empty; inside the enclosing Loop only the live arm carries
   bytes-per-iteration, so keep just that. *)
and norm_loop sub =
  match normalize sub with
  | [ Branch alts ] -> (
    match List.filter (fun a -> a <> []) alts with
    | [ live ] -> live
    | _ -> [ Branch alts ])
  | items -> items
