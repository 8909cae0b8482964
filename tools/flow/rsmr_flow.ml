(* rsmr-flow — interprocedural determinism & exception-flow analysis.

   rsmr-lint (tools/lint) checks determinism rules per expression, so a
   one-line wrapper module launders any violation past it:

     let now () = Sys.time ()        (* helper.ml: no rule fires here...  *)
     ... Helper.now () ...           (* ...and the call site looks pure   *)

   This tool closes that hole.  It loads the .cmt/.cmti typedtrees dune
   already produces for every library module, builds a cross-module call
   graph over fully resolved paths (so module aliases, opens and library
   wrappers are all seen through), and computes two transitive effect sets
   per top-level function:

     nondeterminism  reaches the host wall clock (Unix.gettimeofday,
                     Unix.time, Sys.time), the ambient stdlib PRNG
                     (the Random module outside Random.State), unordered
                     hash-table iteration (Hashtbl.iter/fold/to_seq, also
                     through a Hashtbl.Make instance), host
                     environment reads (Sys.getenv), physical equality
                     (==/!=) or Marshal.
     may-raise       reaches failwith, a raise of an exception not
                     allow-listed in lint.conf ([allow-raise]), assert, or
                     a partial stdlib function (List.hd/tl/nth/find/assoc,
                     Option.get, Hashtbl.find, Queue.pop/take/peek,
                     Stack.pop/top, int_of_string, ...).  invalid_arg is
                     deliberately NOT in this set: it is the repo's
                     sanctioned fail-fast precondition guard, whereas the
                     sources above crash on reachable protocol input.

   Enforcement is annotation-driven.  Protocol entry points are marked in
   their .mli (or, for functor internals, on the .ml let-binding):

     val handle : t -> src:Node_id.t -> Msg.t -> unit
     [@@rsmr.deterministic] [@@rsmr.total]

   and the tool errors with the full offending call chain
   (Replica.handle -> Log.truncate -> List.hd) when an annotated root can
   reach a forbidden effect.  [@@rsmr.assume_deterministic] /
   [@@rsmr.assume_total] cut the analysis at a function that is trusted by
   construction (use sparingly; every use is greppable).  Severities and
   path exemptions extend the shared lint.conf: rules [flow-nondet] and
   [flow-raise], with [exempt] matching the file that *defines* the
   offending function (or the root's own file).

   Known over/under-approximations, documented in DESIGN.md s7:
   - effects anywhere in a function body count, even inside a lambda that
     is never called (over);
   - calls through closures stored in records/refs and through functor
     parameters are invisible (under) — annotate both sides' entry points;
   - a try/with masks may-raise effects arising anywhere under its body,
     whatever it actually catches (under); nondeterminism is never masked;
   - Map/Set functor instances are opaque (under): their partial [find]
     is not tracked.  A Hashtbl.Make/MakeSeeded instance is not: it
     resolves as Hashtbl (tools/tt), so its iter/fold/to_seq* are
     nondeterministic and its find may raise. *)

module T = Typedtree
module Diag = Rsmr_diag.Diag
module Lint_config = Rsmr_diag.Lint_config
open Rsmr_tt.Tt
(* unit_display, wrapper registration, env/resolve_*, attrs, loc_pos,
   register_structure, walk — shared with rsmr-mirror. *)

(* ------------------------------------------------------------- effects *)

type dim = Nondet | Raise

let rule_of_dim = function Nondet -> "flow-nondet" | Raise -> "flow-raise"

let nondet_exact =
  [
    "Unix.gettimeofday"; "Unix.time"; "Unix.localtime"; "Unix.gmtime";
    "Unix.getpid"; "Sys.time"; "Sys.getenv"; "Sys.getenv_opt";
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values"; "Random.self_init"; "Random.State.make_self_init";
    "=="; "!=";
  ]

let raise_exact =
  [
    "failwith"; "raise"; "raise_notrace";
    "List.hd"; "List.tl"; "List.nth"; "List.find"; "List.assoc";
    "Option.get"; "Hashtbl.find"; "Queue.pop"; "Queue.take"; "Queue.peek";
    "Queue.top"; "Stack.pop"; "Stack.top"; "int_of_string"; "float_of_string";
    "bool_of_string"; "Char.chr"; "String.index"; "String.rindex";
  ]

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let nondet_source key =
  List.mem key nondet_exact
  || starts_with "Marshal." key
  || (starts_with "Random." key && not (starts_with "Random.State." key))

let raise_source key = List.mem key raise_exact

(* ------------------------------------------------------------ the graph *)

type effect_ = {
  e_dim : dim;
  e_source : string; (* "Sys.time", "List.hd", "raise Foo", "assert" *)
  e_loc : Location.t;
  e_in_try : bool;
}

type node = {
  n_key : string; (* "Replica.handle", "Codec.Writer.varint" *)
  n_file : string;
  n_line : int;
  n_col : int;
  mutable n_effects : effect_ list;
  mutable n_calls : (string * bool (* in_try *)) list;
  mutable n_root_det : bool;
  mutable n_root_total : bool;
  mutable n_assume_det : bool;
  mutable n_assume_total : bool;
}

let nodes : (string, node) Hashtbl.t = Hashtbl.create 512

(* Annotations found in .cmti interfaces, applied once all nodes exist. *)
let pending_roots : (string * string) list ref = ref []

let diagnostics : Diag.t list ref = ref []
let modules_loaded = ref 0

let get_node key ~loc =
  match Hashtbl.find_opt nodes key with
  | Some n -> n
  | None ->
    let file, line, col = loc_pos loc in
    let n =
      {
        n_key = key;
        n_file = file;
        n_line = line;
        n_col = col;
        n_effects = [];
        n_calls = [];
        n_root_det = false;
        n_root_total = false;
        n_assume_det = false;
        n_assume_total = false;
      }
    in
    Hashtbl.replace nodes key n;
    n

(* ------------------------------------------------------- cmt traversal *)

let apply_attrs node attrs =
  if has_attr "rsmr.deterministic" attrs then node.n_root_det <- true;
  if has_attr "rsmr.total" attrs then node.n_root_total <- true;
  if has_attr "rsmr.assume_deterministic" attrs then node.n_assume_det <- true;
  if has_attr "rsmr.assume_total" attrs then node.n_assume_total <- true

let allow_raise_set : (string, unit) Hashtbl.t = Hashtbl.create 8

(* The exception constructor's normalized name, e.g. "Codec.Truncated";
   locally declared exceptions resolve through env.values (registered at
   declaration), predefined ones (Not_found, Exit, ...) by their name. *)
let exn_name env (cd : Types.constructor_description) =
  match cd.Types.cstr_tag with
  | Types.Cstr_extension (path, _) -> (
    match resolve_value env path with
    | Some key -> Some key
    | None -> (
      match path with
      | Path.Pident id -> Some (Ident.name id)
      | _ -> None))
  | _ -> None

let analyze_body env node (body : T.expression) =
  let try_depth = ref 0 in
  let note_effect dim source loc =
    node.n_effects <-
      {
        e_dim = dim;
        e_source = source;
        e_loc = loc;
        e_in_try = !try_depth > 0;
      }
      :: node.n_effects
  in
  let note_ref path loc =
    match resolve_value env path with
    | None -> ()
    | Some key ->
      if nondet_source key then note_effect Nondet key loc
      else if raise_source key then note_effect Raise key loc
      else node.n_calls <- (key, !try_depth > 0) :: node.n_calls
  in
  let is_raise path =
    match resolve_value env path with
    | Some ("raise" | "raise_notrace") -> true
    | _ -> false
  in
  let rec iter =
    {
      Tast_iterator.default_iterator with
      expr = (fun self e -> expr self e);
    }
  and expr self (e : T.expression) =
    match e.T.exp_desc with
    | T.Texp_ident (path, _, _) -> note_ref path e.T.exp_loc
    | T.Texp_apply
        ({ T.exp_desc = T.Texp_ident (path, _, _); _ }, [ (_, Some arg) ])
      when is_raise path -> (
      match arg.T.exp_desc with
      | T.Texp_construct (_, cd, cargs) -> (
        (match exn_name env cd with
         | Some name when Hashtbl.mem allow_raise_set name ->
           () (* tagged protocol error, sanctioned by allow-raise *)
         | Some name -> note_effect Raise ("raise " ^ name) e.T.exp_loc
         | None -> note_effect Raise "raise" e.T.exp_loc);
        List.iter (self.Tast_iterator.expr self) cargs)
      | _ ->
        (* re-raise of a variable or computed exception *)
        note_effect Raise "raise" e.T.exp_loc;
        self.Tast_iterator.expr self arg)
    | T.Texp_letmodule (id, _, _, me, body) ->
      register_letmodule env id me;
      self.Tast_iterator.module_expr self me;
      self.Tast_iterator.expr self body
    | T.Texp_try (body, handlers) ->
      (* Assume the handlers cover whatever the body raises: may-raise is
         masked under a try, nondeterminism never is. *)
      incr try_depth;
      self.Tast_iterator.expr self body;
      decr try_depth;
      List.iter (fun c -> self.Tast_iterator.case self c) handlers
    | T.Texp_assert (cond, _) ->
      (match cond.T.exp_desc with
       | T.Texp_construct (_, { Types.cstr_name = "false"; _ }, _) ->
         note_effect Raise "assert false" e.T.exp_loc
       | _ -> note_effect Raise "assert" e.T.exp_loc);
      self.Tast_iterator.expr self cond
    | _ -> Tast_iterator.default_iterator.expr self e
  in
  iter.Tast_iterator.expr iter body

(* Analysis pass: walk the same shape as Tt.register_structure,
   creating graph nodes. *)

let rec analyze_structure env prefix (str : T.structure) =
  List.iter (analyze_item env prefix) str.T.str_items

and analyze_item env prefix (item : T.structure_item) =
  match item.T.str_desc with
  | T.Tstr_value (_, vbs) ->
    List.iteri
      (fun i vb ->
        let key =
          match vb_name vb with
          | Some (_, name) -> prefix ^ "." ^ name
          | None -> Printf.sprintf "%s.<toplevel#%d>" prefix i
        in
        let node = get_node key ~loc:vb.T.vb_loc in
        apply_attrs node vb.T.vb_attributes;
        analyze_body env node vb.T.vb_expr)
      vbs
  | T.Tstr_module mb -> analyze_module env prefix mb
  | T.Tstr_recmodule mbs -> List.iter (analyze_module env prefix) mbs
  | _ -> ()

and analyze_module env prefix (mb : T.module_binding) =
  match mb.T.mb_id with
  | None -> ()
  | Some id -> (
    let sub = prefix ^ "." ^ Ident.name id in
    let me = unwrap_module_expr mb.T.mb_expr in
    match me.T.mod_desc with
    | T.Tmod_structure str -> analyze_structure env sub str
    | T.Tmod_functor _ ->
      let rec peel (me : T.module_expr) =
        match me.T.mod_desc with
        | T.Tmod_functor (_, body) -> peel (unwrap_module_expr body)
        | T.Tmod_structure str -> analyze_structure env sub str
        | _ -> ()
      in
      peel me
    | _ -> ())

(* Interface pass: [@@rsmr.*] on .mli vals name annotation roots.
   Recurses into concrete submodule signatures (module M : sig ... end)
   so e.g. Vr.Msg.decode is annotatable; module *types* are skipped —
   they have no implementation of their own. *)
let rec scan_interface prefix (sg : T.signature) =
  List.iter
    (fun (item : T.signature_item) ->
      match item.T.sig_desc with
      | T.Tsig_value vd ->
        let key = prefix ^ "." ^ vd.T.val_name.txt in
        List.iter
          (fun a ->
            match attr_name a with
            | "rsmr.deterministic" | "rsmr.total" | "rsmr.assume_deterministic"
            | "rsmr.assume_total" ->
              pending_roots := (attr_name a, key) :: !pending_roots
            | _ -> ())
          vd.T.val_attributes
      | T.Tsig_module md -> (
        match (md.T.md_name.txt, md.T.md_type.T.mty_desc) with
        | Some name, T.Tmty_signature sub ->
          scan_interface (prefix ^ "." ^ name) sub
        | _ -> ())
      | _ -> ())
    sg.T.sig_items

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ ->
    Printf.eprintf "rsmr_flow: cannot read %s (skipped)\n" path
  | cmt -> (
    let modname = unit_display cmt.Cmt_format.cmt_modname in
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      incr modules_loaded;
      let env = fresh_env () in
      register_structure env modname str;
      analyze_structure env modname str
    | Cmt_format.Interface sg -> scan_interface modname sg
    | _ -> ())

(* ---------------------------------------------------------- the solver *)

let apply_pending_roots () =
  List.iter
    (fun (attr, key) ->
      match Hashtbl.find_opt nodes key with
      | Some node ->
        if attr = "rsmr.deterministic" then node.n_root_det <- true;
        if attr = "rsmr.total" then node.n_root_total <- true;
        if attr = "rsmr.assume_deterministic" then node.n_assume_det <- true;
        if attr = "rsmr.assume_total" then node.n_assume_total <- true
      | None ->
        diagnostics :=
          {
            Diag.file = "<interface>";
            line = 1;
            col = 0;
            rule = "flow-nondet";
            sev = Diag.Warn;
            msg =
              Printf.sprintf
                "[@@%s] on %s names no analyzable implementation (alias-only \
                 or external definition?)"
                attr key;
            chain = [];
          }
          :: !diagnostics)
    !pending_roots

let assumed node = function
  | Nondet -> node.n_assume_det
  | Raise -> node.n_assume_total

let annotation_name = function
  | Nondet -> "[@@rsmr.deterministic]"
  | Raise -> "[@@rsmr.total]"

let effect_phrase = function
  | Nondet -> "reaches nondeterministic"
  | Raise -> "may raise via"

let check_root cfg root dim =
  let rule = rule_of_dim dim in
  if Lint_config.severity cfg rule = Diag.Off then ()
  else begin
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let reported : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    (* Breadth-first so the reported chain is a shortest path. *)
    let queue = Queue.create () in
    Queue.add (root, [ root.n_key ]) queue;
    Hashtbl.replace seen root.n_key ();
    while not (Queue.is_empty queue) do
      match Queue.take_opt queue with
      | None -> ()
      | Some (node, rev_path) ->
        if not (assumed node dim) then begin
          List.iter
            (fun e ->
              if
                e.e_dim = dim
                && not (dim = Raise && e.e_in_try)
                && not (Lint_config.exempt cfg rule node.n_file)
                && not (Lint_config.exempt cfg rule root.n_file)
              then begin
                let dedupe = node.n_key ^ "\x00" ^ e.e_source in
                if not (Hashtbl.mem reported dedupe) then begin
                  Hashtbl.replace reported dedupe ();
                  diagnostics :=
                    {
                      Diag.file = root.n_file;
                      line = root.n_line;
                      col = root.n_col;
                      rule;
                      sev = Lint_config.severity cfg rule;
                      msg =
                        Printf.sprintf "%s is annotated %s but %s %s (in %s)"
                          root.n_key (annotation_name dim)
                          (effect_phrase dim) e.e_source node.n_key;
                      chain = List.rev (e.e_source :: rev_path);
                    }
                    :: !diagnostics
                end
              end)
            node.n_effects;
          List.iter
            (fun (callee, in_try) ->
              if not (dim = Raise && in_try) then
                match Hashtbl.find_opt nodes callee with
                | Some next when not (Hashtbl.mem seen callee) ->
                  Hashtbl.replace seen callee ();
                  Queue.add (next, callee :: rev_path) queue
                | _ -> ())
            node.n_calls
        end
    done
  end

(* ------------------------------------------------------------------ main *)

let usage =
  "usage: rsmr_flow [--config FILE] [--format text|json] DIR-or-CMT..."

let () =
  let config_file = ref None in
  let format = ref Diag.Text in
  let inputs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--config" :: f :: rest ->
      config_file := Some f;
      parse_args rest
    | "--format" :: f :: rest -> (
      match Diag.format_of_string f with
      | Some f ->
        format := f;
        parse_args rest
      | None ->
        Printf.eprintf "rsmr_flow: unknown format %S\n%s\n" f usage;
        exit 2)
    | d :: rest when not (starts_with "--" d) ->
      inputs := d :: !inputs;
      parse_args rest
    | arg :: _ ->
      Printf.eprintf "rsmr_flow: unknown argument %S\n%s\n" arg usage;
      exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !inputs = [] then begin
    Printf.eprintf "%s\n" usage;
    exit 2
  end;
  let cfg =
    match !config_file with
    | Some f -> Lint_config.parse f
    | None -> Lint_config.default ()
  in
  List.iter
    (fun exn -> Hashtbl.replace allow_raise_set exn ())
    cfg.Lint_config.allow_raise;
  let files = List.concat_map (fun d -> List.rev (walk d [])) (List.rev !inputs) in
  (* Wrapper names must be known before the first typedtree is resolved,
     so learn them from the full file list up front. *)
  List.iter register_wrapper_of_filename files;
  List.iter load_cmt files;
  apply_pending_roots ();
  let roots =
    Hashtbl.fold (fun _ n acc -> n :: acc) nodes []
    |> List.filter (fun n -> n.n_root_det || n.n_root_total)
    |> List.sort (fun a b -> String.compare a.n_key b.n_key)
  in
  List.iter
    (fun root ->
      if root.n_root_det then check_root cfg root Nondet;
      if root.n_root_total then check_root cfg root Raise)
    roots;
  let ds = List.sort Diag.compare !diagnostics in
  let errors = Diag.errors ds in
  let warns = Diag.warnings ds in
  let summary =
    Printf.sprintf
      "rsmr-flow: %d module(s) loaded, %d function(s), %d root(s) checked, \
       %d error(s), %d warning(s)"
      !modules_loaded (Hashtbl.length nodes) (List.length roots) errors warns
  in
  Diag.print ~format:!format ~tool:"rsmr-flow" ds ~summary;
  exit (if errors > 0 then 1 else 0)
