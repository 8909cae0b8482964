(* Lift a typedtree codec body into its symbolic byte shape.

   The abstraction tracks only what touches a sink ([Codec.Writer.t] /
   [Codec.Reader.t], recognized by type): primitive calls become width
   items, combinators become [Opt]/[Rep], manual iteration becomes
   [Loop], passing a sink to another resolved codec body becomes [Call],
   and tag dispatch becomes [Switch].  Everything value-level (arithmetic,
   constructors, map rebuilding) lifts to nothing.  Constructs the
   abstraction cannot see through lift to [Opaque] and are reported as
   [mirror-opaque] so the soundness gap is visible rather than silent. *)

module T = Typedtree
module Tt = Rsmr_tt.Tt

type body = {
  b_key : string;
  b_loc : Location.t;
  b_items : Shape.t list;
  b_writer : bool;
  b_reader : bool;
  b_codec_name : string option;
  b_oneway : bool;
}

type local_fn = {
  lf_expr : T.expression;  (** the function expression (lambda) *)
  lf_rec : bool;
  mutable lf_busy : bool;  (** currently being lifted (recursion guard) *)
  mutable lf_items : Shape.t list option;  (** memo *)
}

type state = {
  env : Tt.env;
  note : Shape.finding -> unit;
  locals : (string, local_fn) Hashtbl.t;  (** Ident.unique_name → fn *)
  mutable used_writer : bool;
  mutable used_reader : bool;
}

(* ---------- classification ---------------------------------------- *)

type role = Writer_sink | Reader_sink

(* Sink types usually surface through module aliases ([module W =
   Rsmr_app.Codec.Writer] makes the inferred type path "W.t"), so the
   path must be resolved through the same environment as value paths
   before suffix-matching. *)
let rec sink_role_of_type env ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, _, _) ->
    let name =
      match Tt.resolve_value env path with
      | Some resolved -> resolved
      | None -> Path.name path
    in
    if Tt.ends_with_component ~suffix:"Codec.Writer.t" name then
      Some Writer_sink
    else if Tt.ends_with_component ~suffix:"Codec.Reader.t" name then
      Some Reader_sink
    else None
  | Types.Tpoly (ty, _) -> sink_role_of_type env ty
  | _ -> None

let is_sink env e = sink_role_of_type env e.T.exp_type <> None

let is_arrow_type ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let writer_prims =
  [ "u8"; "varint"; "zigzag"; "bool"; "float"; "string"; "option"; "list";
    "nested"; "to_string"; "size"; "create"; "contents" ]

let reader_prims =
  [ "u8"; "varint"; "zigzag"; "bool"; "float"; "string"; "framed"; "option";
    "list"; "of_string"; "at_end" ]

let find_prim module_ prims key =
  List.find_opt
    (fun p -> Tt.ends_with_component ~suffix:(module_ ^ "." ^ p) key)
    prims

let writer_prim key = find_prim "Codec.Writer" writer_prims key
let reader_prim key = find_prim "Codec.Reader" reader_prims key

let prim_of_name = function
  | "u8" -> Some Shape.U8
  | "varint" -> Some Shape.Varint
  | "zigzag" -> Some Shape.Zigzag
  | "bool" -> Some Shape.Bool
  | "float" -> Some Shape.Float
  | _ -> None

(* Does [key] name a byte-moving primitive (as opposed to sink
   construction / bookkeeping)?  Used to decide whether an unliftable
   expression hides wire traffic. *)
let byte_prim key =
  match writer_prim key with
  | Some ("to_string" | "size" | "create" | "contents") -> false
  | Some _ -> true
  | None -> (
    match reader_prim key with
    | Some ("of_string" | "at_end") -> false
    | Some _ -> true
    | None -> false)

let contains_byte_prim st (e : T.expression) =
  let found = ref false in
  let expr self (x : T.expression) =
    (match x.T.exp_desc with
     | T.Texp_ident (path, _, _) -> (
       match Tt.resolve_value st.env path with
       | Some key -> if byte_prim key then found := true
       | None -> ())
     | _ -> ());
    Tast_iterator.default_iterator.expr self x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it e;
  !found

let exn_key st (cd : Types.constructor_description) =
  match cd.Types.cstr_tag with
  | Types.Cstr_extension (path, _) -> (
    match Tt.resolve_value st.env path with
    | Some key -> Some key
    | None -> (
      match path with
      | Path.Pident id -> Some (Ident.name id)
      | _ -> Some (Path.name path)))
  | _ -> None

let is_truncated_key key =
  key = "Truncated" || Tt.ends_with_component ~suffix:"Codec.Truncated" key

(* ---------- pattern kinds ------------------------------------------ *)

type pkind =
  | KInt of int  (** integer or char constant *)
  | KCtor of string
  | KDefault  (** wildcard or variable *)
  | KOther  (** tuples, records, guards on structure, ... *)

let rec pat_kinds : type k. k T.general_pattern -> pkind list =
 fun p ->
  match p.T.pat_desc with
  | T.Tpat_value v -> pat_kinds (v :> T.value T.general_pattern)
  | T.Tpat_exception _ -> [ KOther ]
  | T.Tpat_or (a, b, _) -> pat_kinds a @ pat_kinds b
  | T.Tpat_alias (q, _, _) -> pat_kinds q
  | T.Tpat_constant (Asttypes.Const_int n) -> [ KInt n ]
  | T.Tpat_constant (Asttypes.Const_char c) -> [ KInt (Char.code c) ]
  | T.Tpat_constant _ -> [ KOther ]
  | T.Tpat_any -> [ KDefault ]
  | T.Tpat_var _ -> [ KDefault ]
  | T.Tpat_construct (_, cd, _, _) -> [ KCtor cd.Types.cstr_name ]
  | _ -> [ KOther ]

(* Case info with the pattern's existential type eliminated, so writer
   (value cases) and reader (computation cases) share one builder. *)
type case_info = {
  ci_kinds : pkind list;
  ci_guarded : bool;
  ci_rhs : T.expression;
}

let case_info (c : _ T.case) =
  {
    ci_kinds = pat_kinds c.T.c_lhs;
    ci_guarded = c.T.c_guard <> None;
    ci_rhs = c.T.c_rhs;
  }

(* ---------- lifting ------------------------------------------------ *)

(* Top-level constants an encoder built ([let ok = Writer.to_string
   write Ok]), by key: a match case that returns one returns that
   encoder's bytes, as a [to_string] call in its place would. *)
let constants : (string, Shape.t list) Hashtbl.t = Hashtbl.create 16

let case_result st (e : T.expression) =
  match e.T.exp_desc with
  | T.Texp_ident (path, _, _) -> (
    match Tt.resolve_value st.env path with
    | Some key when Hashtbl.mem constants key ->
      st.used_writer <- true;
      Hashtbl.find constants key
    | Some _ | None -> [])
  | _ -> []

let rec lift st (e : T.expression) : Shape.t list =
  match e.T.exp_desc with
  | T.Texp_ident _ | T.Texp_constant _ | T.Texp_unreachable -> []
  | T.Texp_let (rf, vbs, body) ->
    let pre = List.concat_map (lift_let_binding st rf vbs) vbs in
    pre @ lift st body
  | T.Texp_letmodule (id, _, _, me, body) ->
    Tt.register_letmodule st.env id me;
    lift st body
  | T.Texp_letexception (_, body) -> lift st body
  | T.Texp_sequence (a, b) -> lift st a @ lift st b
  | T.Texp_open (_, body) -> lift st body
  | T.Texp_apply (fn, args) -> lift_apply st e.T.exp_loc fn args
  | T.Texp_match (scrut, cases, partial) ->
    let scrut_items = lift st scrut in
    build_match st ~loc:e.T.exp_loc ~scrut_items
      (List.map case_info cases)
      partial
  | T.Texp_function _ ->
    (* a lambda in value position: its body only runs if applied later,
       which the lift cannot follow *)
    if contains_byte_prim st e then begin
      st.note
        (Shape.finding ~rule:"mirror-opaque" e.T.exp_loc
           "codec primitives inside a lambda in value position; the \
            shape of this body cannot be determined"
           ());
      [ Shape.Opaque "lambda" ]
    end
    else []
  | T.Texp_ifthenelse (cond, then_, else_) ->
    let ci = lift st cond in
    let alts =
      [ lift st then_;
        (match else_ with Some e -> lift st e | None -> []) ]
    in
    if List.for_all (fun a -> a = []) alts then ci
    else ci @ [ Shape.Branch alts ]
  | T.Texp_construct (_, _, args) | T.Texp_tuple args | T.Texp_array args ->
    siblings st e.T.exp_loc (List.map (lift st) args)
  | T.Texp_variant (_, arg) -> (
    match arg with Some a -> lift st a | None -> [])
  | T.Texp_record { fields; extended_expression; _ } ->
    let base =
      match extended_expression with Some b -> lift st b | None -> []
    in
    let parts =
      Array.to_list fields
      |> List.map (fun (_, def) ->
             match def with
             | T.Overridden (_, e) -> lift st e
             | T.Kept _ -> [])
    in
    base @ siblings st e.T.exp_loc parts
  | T.Texp_field (e, _, _) -> lift st e
  | T.Texp_setfield (a, _, _, b) -> lift st a @ lift st b
  | T.Texp_try (body, _) ->
    (* handlers run only on the exceptional path *)
    lift st body
  | T.Texp_while (cond, body) ->
    let ci = lift st cond and bi = lift st body in
    if bi = [] && ci = [] then []
    else [ Shape.Loop (ci @ bi) ]
  | T.Texp_for (_, _, lo, hi, _, body) ->
    let bounds = lift st lo @ lift st hi in
    let bi = lift st body in
    bounds @ (if bi = [] then [] else [ Shape.Loop bi ])
  | T.Texp_assert _ -> []
  | T.Texp_lazy body -> lift st body
  | _ ->
    if contains_byte_prim st e then begin
      st.note
        (Shape.finding ~rule:"mirror-opaque" e.T.exp_loc
           "codec primitives inside a construct the shape lift does not \
            model"
           ());
      [ Shape.Opaque "expression" ]
    end
    else []

and lift_let_binding st rf vbs (vb : T.value_binding) =
  match (Tt.vb_name vb, vb.T.vb_expr.T.exp_desc) with
  | Some (id, _), T.Texp_function _ ->
    (* a local helper: remember the lambda, lift on call.  Under
       [let rec], every sibling binding is visible from each body, so
       register before any body is lifted (done per binding here —
       callers only resolve at call time, so order of registration
       within the group does not matter). *)
    Hashtbl.replace st.locals (Ident.unique_name id)
      {
        lf_expr = vb.T.vb_expr;
        lf_rec = rf = Asttypes.Recursive;
        lf_busy = false;
        lf_items = None;
      };
    ignore vbs;
    []
  | _ -> lift st vb.T.vb_expr

and call_local st (lf : local_fn) =
  match lf.lf_items with
  | Some items -> items
  | None ->
    if lf.lf_busy then []
      (* recursive self-call: contributes nothing beyond the enclosing
         iteration, which the [Loop] wrapper below accounts for *)
    else begin
      lf.lf_busy <- true;
      let items = lift_fn_body st lf.lf_expr in
      lf.lf_busy <- false;
      let items =
        if lf.lf_rec && items <> [] then [ Shape.Loop items ] else items
      in
      lf.lf_items <- Some items;
      items
    end

(* Strip the leading single-parameter lambdas off a function expression
   and lift what remains.  A trailing multi-case [function] is an
   implicit match on the last parameter (constructor dispatch with no
   scrutinee bytes). *)
and lift_fn_body st (e : T.expression) =
  match e.T.exp_desc with
  | T.Texp_function { cases = [ c ]; _ } when c.T.c_guard = None ->
    lift_fn_body st c.T.c_rhs
  | T.Texp_function { cases; partial; _ } ->
    build_match st ~loc:e.T.exp_loc ~scrut_items:[]
      (List.map case_info cases)
      partial
  | _ -> lift st e

(* A function argument of a combinator ([Writer.option w FN v]): the
   shape its calls would produce per element. *)
and sub_fn_items st (fn : T.expression) =
  match fn.T.exp_desc with
  | T.Texp_function _ -> lift_fn_body st fn
  | T.Texp_ident (Path.Pident id, _, _)
    when Hashtbl.mem st.locals (Ident.unique_name id) ->
    call_local st (Hashtbl.find st.locals (Ident.unique_name id))
  | T.Texp_ident (path, _, _) -> (
    match Tt.resolve_value st.env path with
    | Some key -> (
      match writer_prim key with
      | Some p -> (
        st.used_writer <- true;
        match prim_of_name p with
        | Some prim -> [ Shape.Prim prim ]
        | None -> if p = "string" then [ Shape.Framed None ] else [])
      | None -> (
        match reader_prim key with
        | Some p -> (
          st.used_reader <- true;
          match prim_of_name p with
          | Some prim -> [ Shape.Prim prim ]
          | None ->
            if p = "string" then [ Shape.Framed None ] else [])
        | None -> [ Shape.Call key ]))
    | None ->
      st.note
        (Shape.finding ~rule:"mirror-opaque" fn.T.exp_loc
           "unresolvable element codec passed to a combinator" ());
      [ Shape.Opaque "element-codec" ])
  | _ ->
    st.note
      (Shape.finding ~rule:"mirror-opaque" fn.T.exp_loc
         "computed element codec passed to a combinator" ());
    [ Shape.Opaque "element-codec" ]

and lift_apply st loc (fn : T.expression) args =
  let argexprs = List.filter_map (fun (_, a) -> a) args in
  match fn.T.exp_desc with
  | T.Texp_ident (Path.Pident id, _, _)
    when Hashtbl.mem st.locals (Ident.unique_name id) ->
    (* local helper: argument effects first (they evaluate before the
       call), then the helper's own shape *)
    let pre = siblings st loc (List.map (lift st) argexprs) in
    pre @ call_local st (Hashtbl.find st.locals (Ident.unique_name id))
  | T.Texp_ident (path, _, _) -> (
    match Tt.resolve_value st.env path with
    | Some key -> (
      match writer_prim key with
      | Some p -> lift_writer_prim st loc p argexprs
      | None -> (
        match reader_prim key with
        | Some p -> lift_reader_prim st loc p argexprs
        | None -> lift_known_call st loc key argexprs))
    | None -> lift_unknown_call st loc fn argexprs)
  | _ ->
    (* computed function: lift it plus the arguments *)
    lift_unknown_call st loc fn argexprs

and lift_writer_prim st loc p argexprs =
  let item =
    match prim_of_name p with
    | Some prim -> (
      st.used_writer <- true;
      (* [u8 w 3]: a literal byte — the tag idiom *)
      match (prim, argexprs) with
      | ( Shape.U8,
          [ _; { T.exp_desc = T.Texp_constant (Asttypes.Const_int n); _ } ] )
        ->
        [ Shape.Const n ]
      | ( Shape.U8,
          [ _; { T.exp_desc = T.Texp_constant (Asttypes.Const_char c); _ } ]
        ) ->
        [ Shape.Const (Char.code c) ]
      | _ -> [ Shape.Prim prim ])
    | None -> (
      match p with
      | "string" ->
        st.used_writer <- true;
        [ Shape.Framed None ]
      | "option" | "list" ->
        st.used_writer <- true;
        let sub =
          match
            List.find_opt (fun a -> is_arrow_type a.T.exp_type) argexprs
          with
          | Some f -> sub_fn_items st f
          | None -> [ Shape.Opaque "element-codec" ]
        in
        if p = "option" then [ Shape.Opt sub ] else [ Shape.Rep sub ]
      | "nested" -> (
        st.used_writer <- true;
        match
          List.find_opt (fun a -> is_arrow_type a.T.exp_type) argexprs
        with
        | Some f -> (
          match sub_fn_items st f with
          | [ Shape.Call key ] -> [ Shape.Framed (Some key) ]
          | sub ->
            (* inline lambda or primitive body: an anonymous frame *)
            ignore sub;
            [ Shape.Framed None ])
        | None -> [ Shape.Framed None ])
      | "to_string" | "size" -> (
        (* [to_string write v] runs [write] on a sink of its own and
           returns what it wrote: the body of [write], unframed. *)
        st.used_writer <- true;
        match
          List.find_opt (fun a -> is_arrow_type a.T.exp_type) argexprs
        with
        | Some f -> sub_fn_items st f
        | None -> [ Shape.Opaque "element-codec" ])
      | _ -> (* create / contents *) [])
  in
  (* value arguments evaluate before the primitive runs; only non-sink,
     non-function arguments can themselves move bytes *)
  let pre =
    List.concat_map
      (fun a ->
        if is_sink st.env a || is_arrow_type a.T.exp_type then [] else lift st a)
      argexprs
  in
  ignore loc;
  pre @ item

and lift_reader_prim st loc p argexprs =
  let item =
    match prim_of_name p with
    | Some prim ->
      st.used_reader <- true;
      [ Shape.Prim prim ]
    | None -> (
      match p with
      | "string" ->
        st.used_reader <- true;
        [ Shape.Framed None ]
      | "framed" -> (
        (* [framed r f]: with a named codec [f], the nested-frame read
           that pairs with [Writer.nested f]; with a parameter, a frame
           whose contents the caller chooses *)
        st.used_reader <- true;
        match
          List.find_map
            (fun (a : T.expression) ->
              match a.T.exp_desc with
              | T.Texp_ident (path, _, _) when is_arrow_type a.T.exp_type
                -> (
                match Tt.resolve_value st.env path with
                | Some key when reader_prim key = None -> Some key
                | Some _ | None -> None)
              | _ -> None)
            argexprs
        with
        | Some key -> [ Shape.Framed (Some key) ]
        | None -> [ Shape.Framed None ])
      | "option" | "list" ->
        st.used_reader <- true;
        let sub =
          match
            List.find_opt (fun a -> is_arrow_type a.T.exp_type) argexprs
          with
          | Some f -> sub_fn_items st f
          | None -> [ Shape.Opaque "element-codec" ]
        in
        if p = "option" then [ Shape.Opt sub ] else [ Shape.Rep sub ]
      | _ -> (* of_string / at_end *) [])
  in
  let pre =
    List.concat_map
      (fun a ->
        if is_sink st.env a || is_arrow_type a.T.exp_type then [] else lift st a)
      argexprs
  in
  ignore loc;
  pre @ item

(* A call to a resolved non-primitive.  If a sink flows into it the
   callee continues this body's byte stream ([Call]).  Otherwise it is
   value-level and only its arguments matter. *)
and lift_known_call st loc key argexprs =
  match
    List.find_map (fun a -> sink_role_of_type st.env a.T.exp_type) argexprs
  with
  | Some role ->
    (match role with
     | Writer_sink -> st.used_writer <- true
     | Reader_sink -> st.used_reader <- true);
    let other =
      List.concat_map
        (fun a -> if is_sink st.env a then [] else lift st a)
        argexprs
    in
    other @ [ Shape.Call key ]
  | None -> lift_call_args st loc argexprs

(* Arguments of a value-level call.  A lambda (or local helper) argument
   that moves bytes is almost certainly an iteration callback
   ([Map.iter], [List.iter], [fold]), so wrap its shape in [Loop]. *)
and lift_call_args st loc argexprs =
  let parts =
    List.map
      (fun a ->
        match a.T.exp_desc with
        | T.Texp_function _ ->
          let items = lift_fn_body st a in
          if items = [] then [] else [ Shape.Loop items ]
        | T.Texp_ident (Path.Pident id, _, _)
          when Hashtbl.mem st.locals (Ident.unique_name id) ->
          let items =
            call_local st (Hashtbl.find st.locals (Ident.unique_name id))
          in
          if items = [] then [] else [ Shape.Loop items ]
        | _ -> lift st a)
      argexprs
  in
  siblings st loc parts

(* Unresolvable callee (member of an opaque module, functor parameter,
   computed).  A sink argument means unknown bytes. *)
and lift_unknown_call st loc fn argexprs =
  let sink_arg = List.exists (is_sink st.env) argexprs in
  if sink_arg then begin
    (match
       List.find_map (fun a -> sink_role_of_type st.env a.T.exp_type) argexprs
     with
    | Some Writer_sink -> st.used_writer <- true
    | Some Reader_sink -> st.used_reader <- true
    | None -> ());
    st.note
      (Shape.finding ~rule:"mirror-opaque" loc
         "a codec sink escapes to an unresolvable function" ());
    [ Shape.Opaque "sink-escape" ]
  end
  else
    let fn_items =
      match fn.T.exp_desc with T.Texp_ident _ -> [] | _ -> lift st fn
    in
    fn_items @ lift_call_args st loc argexprs

(* Two or more effectful codec operations in sibling positions (tuple
   components, constructor/record arguments, arguments of one call):
   OCaml does not specify their evaluation order, so the wire layout is
   formally unspecified even if the current compiler is consistent. *)
and siblings st loc parts =
  let effectful = List.length (List.filter (fun p -> p <> []) parts) in
  if effectful >= 2 then
    st.note
      (Shape.finding ~rule:"mirror-eval-order" loc
         (Printf.sprintf
            "%d effectful codec operations in sibling positions; their \
             evaluation order is unspecified"
            effectful)
         ());
  List.concat parts

and build_match st ~loc ~scrut_items (infos : case_info list) partial =
  if List.exists (fun ci -> ci.ci_guarded) infos then begin
    if List.exists (fun ci -> contains_byte_prim st ci.ci_rhs) infos then begin
      st.note
        (Shape.finding ~rule:"mirror-opaque" loc
           "codec primitives under a guarded match; guards are not \
            modeled"
           ());
      scrut_items @ [ Shape.Opaque "guarded-match" ]
    end
    else scrut_items
  end
  else
    let kinds = List.concat_map (fun ci -> ci.ci_kinds) infos in
    let is_int_dispatch =
      List.exists (function KInt _ -> true | _ -> false) kinds
      && List.for_all
           (function KInt _ | KDefault -> true | _ -> false)
           kinds
    and is_ctor_dispatch =
      List.exists (function KCtor _ -> true | _ -> false) kinds
      && List.for_all
           (function KCtor _ | KDefault -> true | _ -> false)
           kinds
    in
    if is_int_dispatch then begin
      let default = ref Shape.No_default in
      let cases =
        List.concat_map
          (fun ci ->
            let items = lift st ci.ci_rhs in
            List.filter_map
              (function
                | KInt n ->
                  Some
                    {
                      Shape.c_tag = Some n;
                      c_label = string_of_int n;
                      c_items = items;
                    }
                | KDefault ->
                  default := default_kind st ci.ci_rhs;
                  None
                | _ -> None)
              ci.ci_kinds)
          infos
      in
      ignore partial;
      let sw =
        Shape.Switch
          { sw_tag = None; sw_cases = cases; sw_default = !default }
      in
      (* when the scrutinee is exactly one primitive read, that read IS
         the dispatch byte: absorb it into the switch *)
      match scrut_items with
      | [ Shape.Prim p ] ->
        [ Shape.Switch
            { sw_tag = Some p; sw_cases = cases; sw_default = !default } ]
      | _ -> scrut_items @ [ sw ]
    end
    else if is_ctor_dispatch then begin
      let cases =
        List.concat_map
          (fun ci ->
            let items = lift st ci.ci_rhs @ case_result st ci.ci_rhs in
            let labels =
              List.filter_map
                (function
                  | KCtor name -> Some name
                  | KDefault -> Some "_"
                  | _ -> None)
                ci.ci_kinds
            in
            match labels with
            | [] -> []
            | _ ->
              [ { Shape.c_tag = None;
                  c_label = String.concat "|" labels;
                  c_items = items;
                } ])
          infos
      in
      (* pure two-constructor dispatch with no bytes anywhere (bool
         tests and the like) is value-level *)
      if List.for_all (fun c -> c.Shape.c_items = []) cases then scrut_items
      else
        scrut_items
        @ [ Shape.Switch
              { sw_tag = None; sw_cases = cases; sw_default = No_default } ]
    end
    else
      let alts = List.map (fun ci -> lift st ci.ci_rhs) infos in
      if List.for_all (fun a -> a = []) alts then scrut_items
      else scrut_items @ [ Shape.Branch alts ]

(* What does the wildcard branch of a tag dispatch do?  Decoders must
   raise [Codec.Truncated] there. *)
and default_kind st (e : T.expression) =
  match e.T.exp_desc with
  | T.Texp_apply ({ T.exp_desc = T.Texp_ident (path, _, _); _ }, args) -> (
    let callee = Tt.resolve_value st.env path in
    match (callee, args) with
    | Some ("Stdlib.raise" | "Stdlib.raise_notrace"), [ (_, Some arg) ]
    | Some ("raise" | "raise_notrace"), [ (_, Some arg) ] -> (
      match arg.T.exp_desc with
      | T.Texp_construct (_, cd, _) -> (
        match exn_key st cd with
        | Some key when is_truncated_key key -> Shape.Truncates
        | Some key -> Shape.Default_other ("raises " ^ key)
        | None -> Shape.Default_other "raises an unresolved exception")
      | _ -> Shape.Default_other "raises a computed exception")
    | Some ("Stdlib.failwith" | "failwith"), _ ->
      Shape.Default_other "calls failwith"
    | Some ("Stdlib.invalid_arg" | "invalid_arg"), _ ->
      Shape.Default_other "calls invalid_arg"
    | _ -> Shape.Default_other "does not raise Codec.Truncated")
  | _ -> Shape.Default_other "does not raise Codec.Truncated"

(* ---------- entry point -------------------------------------------- *)

let lift_binding ~note ~env ~key (vb : T.value_binding) =
  let st =
    {
      env;
      note;
      locals = Hashtbl.create 8;
      used_writer = false;
      used_reader = false;
    }
  in
  let items = lift_fn_body st vb.T.vb_expr in
  if items = [] || not (st.used_writer || st.used_reader) then None
  else begin
    (match vb.T.vb_expr.T.exp_desc with
     | T.Texp_function _ -> ()
     | _ -> if not st.used_reader then Hashtbl.replace constants key items);
    let codec_name =
      List.find_map
        (fun a ->
          if Tt.attr_name a = "rsmr.codec" then Tt.attr_string_payload a
          else None)
        vb.T.vb_attributes
    in
    Some
      {
        b_key = key;
        b_loc = vb.T.vb_loc;
        b_items = items;
        b_writer = st.used_writer;
        b_reader = st.used_reader;
        b_codec_name = codec_name;
        b_oneway = Tt.has_attr "rsmr.codec.oneway" vb.T.vb_attributes;
      }
  end
