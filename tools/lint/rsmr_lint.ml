(* rsmr-lint — determinism & protocol-safety static analysis for this repo.

   Parses every .ml under the given directories with compiler-libs and
   enforces repo-specific rules that the type checker cannot:

   R1 determinism
     [hashtbl-iteration]  no [Hashtbl.iter]/[Hashtbl.fold] in protocol
                          libraries (lib/smr, lib/baselines, lib/core,
                          lib/client), nor [iter]/[fold] of a module the
                          file binds to [Hashtbl.Make (...)] or
                          [Hashtbl.MakeSeeded (...)]: bucket order is a function of
                          insertion history and must not reach message,
                          commit or log order.  Use
                          [Rsmr_sim.Stable.iter_sorted]/[fold_sorted], or
                          annotate a genuinely commutative use with
                          [(* lint: order-insensitive *)].
     [wall-clock]         no [Unix.gettimeofday]/[Unix.time]/[Sys.time]:
                          simulated time comes from [Engine.now].
     [ambient-random]     no [Random.*] (the stdlib global PRNG) anywhere:
                          all randomness flows from the seeded
                          [Rsmr_sim.Rng].
   R2 protocol safety
     [poly-compare]       no bare polymorphic [compare]/[Stdlib.compare] in
                          protocol libraries, and no [=]/[<>] whose operand
                          syntactically involves a wire-codec type's
                          constructors or module: use the dedicated
                          [equal_*]/[compare_*] functions or a keyed sort.
     [codec-exhaustive]   in every wire-codec module (a module defining
                          top-level [encode] and [decode]), each
                          constructor of each variant type declared there
                          must appear in BOTH the encode and the decode
                          body — catching silently-dropped message tags.
     [state-hash]         no structural hashing ([Hashtbl.hash],
                          [Hashtbl.seeded_hash], [Hashtbl.hash_param]) in
                          protocol libraries or the model checker
                          (lib/mc): structural hashing truncates deep
                          values (hash_param's meaningful-node budget)
                          and depends on in-memory representation, so two
                          runs of the checker could fingerprint equal
                          protocol states differently.  Fingerprints come
                          from canonical encodings via [Rsmr_sim.Fnv] /
                          [Rsmr_mc.Fingerprint].
   R3 hygiene
     [missing-mli]        every module under lib/ has an .mli.
     [decode-failwith]    no [failwith]/[assert false] inside [decode*]
                          functions: decode paths raise a tagged error
                          (e.g. [Codec.Truncated]) so callers can reject
                          malformed input deterministically.
     [print-noise]        no [Printf.printf]/[Format.eprintf]/
                          [print_endline]-family calls in protocol
                          libraries: observability flows through the
                          Observatory registry and the trace bus
                          ([Rsmr_obs]), never stdout — ad-hoc prints are
                          invisible to tooling and pollute CLI output.

   Suppression: a comment [(* lint: <rule-id> ... *)] on the violating line
   or the line directly above disables that rule for that line
   ([order-insensitive] is an alias for [hashtbl-iteration]).  Severities
   and path exemptions come from a config file shared with rsmr-flow (see
   --config and tools/diag/lint_config.mli); an [exempt] line whose path
   prefix no longer matches anything on disk is itself reported as
   [stale-exemption], so suppressions cannot silently outlive the files
   they covered. *)

module P = Parsetree
module Diag = Rsmr_diag.Diag
module Lint_config = Rsmr_diag.Lint_config

let alias = Lint_config.alias

let protocol_dirs = [ "lib/smr"; "lib/baselines"; "lib/core"; "lib/client" ]

(* state-hash additionally covers the model checker itself: its
   fingerprints are the dedup identity of visited states, exactly where
   structural hashing would be most tempting and most wrong. *)
let state_hash_dirs = protocol_dirs @ [ "lib/mc" ]

type config = Lint_config.t

let severity = Lint_config.severity
let exempt = Lint_config.exempt

(* ----------------------------------------------------------- diagnostics *)

type report = {
  mutable violations : Diag.t list;
  mutable suppressed : int;
  mutable files : int;
}

let report = { violations = []; suppressed = 0; files = 0 }

let loc_pos (loc : Location.t) =
  let p = loc.Location.loc_start in
  (max 1 p.Lexing.pos_lnum, max 0 (p.Lexing.pos_cnum - p.Lexing.pos_bol))

(* -------------------------------------------------- per-file scan context *)

type ctx = {
  relpath : string;
  protocol : bool; (* protocol-library scope: R1/R2 expression rules *)
  state_scope : bool; (* protocol scope plus lib/mc: state-hash rule *)
  cfg : config;
  suppressions : (int, string list) Hashtbl.t; (* line -> tokens *)
  toplevel : (string, unit) Hashtbl.t; (* top-level value names *)
  hashtbl_modules : (string, unit) Hashtbl.t;
      (* modules bound to Hashtbl.Make (...) or Hashtbl.MakeSeeded (...) *)
}

let suppressed ctx rule line =
  let tokens l =
    Option.value (Hashtbl.find_opt ctx.suppressions l) ~default:[]
  in
  List.exists (fun t -> alias t = rule) (tokens line @ tokens (line - 1))

let flag ctx ~loc rule msg =
  let line, col = loc_pos loc in
  if severity ctx.cfg rule = Diag.Off then ()
  else if exempt ctx.cfg rule ctx.relpath then ()
  else if suppressed ctx rule line then
    report.suppressed <- report.suppressed + 1
  else
    report.violations <-
      {
        Diag.file = ctx.relpath;
        line;
        col;
        rule;
        msg;
        sev = severity ctx.cfg rule;
        chain = [];
      }
      :: report.violations

(* Scan for single-line "(* lint: ... *)" suppression comments. *)
let scan_suppressions src =
  let tbl = Hashtbl.create 8 in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      let marker = "(* lint:" in
      match
        let rec find from =
          if from + String.length marker > String.length line then None
          else if String.sub line from (String.length marker) = marker then
            Some from
          else find (from + 1)
        in
        find 0
      with
      | None -> ()
      | Some at ->
        let rest = String.sub line (at + String.length marker)
            (String.length line - at - String.length marker)
        in
        let rest =
          match
            let rec find from =
              if from + 2 > String.length rest then None
              else if String.sub rest from 2 = "*)" then Some from
              else find (from + 1)
            in
            find 0
          with
          | Some e -> String.sub rest 0 e
          | None -> rest
        in
        let tokens =
          String.split_on_char ' ' rest
          |> List.concat_map (String.split_on_char ',')
          |> List.filter (fun s -> s <> "")
        in
        Hashtbl.replace tbl (i + 1) tokens)
    lines;
  tbl

(* --------------------------------------------------------- codec registry *)

(* Wire-codec modules (top-level [encode] + [decode]) feed two things:
   the codec-exhaustive check, and the constructor/module registry that
   poly-compare uses to spot equality on message values. *)

type codec = {
  c_relpath : string;
  c_variants : (string * (string * Location.t) list * Location.t) list;
      (* type name, (constructor, loc) list, type loc *)
  c_encode : P.expression list;
      (* [encode] plus every sibling top-level binding it reaches *)
  c_decode : P.expression list;
      (* [decode] plus every sibling top-level binding it reaches *)
}

let registry_constructors : (string, unit) Hashtbl.t = Hashtbl.create 64
let registry_modules : (string, unit) Hashtbl.t = Hashtbl.create 16

let module_name_of relpath =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename relpath))

let toplevel_values structure =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (si : P.structure_item) ->
      match si.pstr_desc with
      | P.Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : P.value_binding) ->
            match vb.pvb_pat.P.ppat_desc with
            | P.Ppat_var { txt; _ } -> Hashtbl.replace tbl txt vb.pvb_expr
            | _ -> ())
          vbs
      | _ -> ())
    structure;
  tbl

(* The wire-format body may be factored into sibling top-level bindings:
   the single-pass codec style defines [write]/[read] bodies (shared by
   [encode], [size] and nested embedding) plus per-field helpers, and
   [encode]/[decode] are thin wrappers over them.  Follow unqualified
   identifier references from a root binding through its siblings (to a
   fixpoint) so the exhaustiveness check sees constructors wherever the
   shared body actually lives. *)
let delegation_closure tops root =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      match Hashtbl.find_opt tops name with
      | None -> ()
      | Some expr ->
        acc := expr :: !acc;
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun self e ->
                (match e.P.pexp_desc with
                 | P.Pexp_ident { txt = Longident.Lident id; _ } -> visit id
                 | _ -> ());
                Ast_iterator.default_iterator.expr self e);
          }
        in
        it.expr it expr
    end
  in
  visit root;
  !acc

let codec_of_structure relpath structure =
  let tops = toplevel_values structure in
  match (Hashtbl.find_opt tops "encode", Hashtbl.find_opt tops "decode") with
  | Some _, Some _ ->
    let variants =
      List.filter_map
        (fun (si : P.structure_item) ->
          match si.pstr_desc with
          | P.Pstr_type (_, decls) ->
            Some
              (List.filter_map
                 (fun (d : P.type_declaration) ->
                   match d.ptype_kind with
                   | P.Ptype_variant cds ->
                     Some
                       ( d.ptype_name.txt,
                         List.map
                           (fun (cd : P.constructor_declaration) ->
                             (cd.pcd_name.txt, cd.pcd_loc))
                           cds,
                         d.ptype_loc )
                   | _ -> None)
                 decls)
          | _ -> None)
        structure
      |> List.concat
    in
    Some { c_relpath = relpath; c_variants = variants;
           c_encode = delegation_closure tops "encode";
           c_decode = delegation_closure tops "decode" }
  | _ -> None

let register_codec codec =
  Hashtbl.replace registry_modules (module_name_of codec.c_relpath) ();
  List.iter
    (fun (_, ctors, _) ->
      List.iter (fun (c, _) -> Hashtbl.replace registry_constructors c ()) ctors)
    codec.c_variants

(* Constructor names mentioned (as pattern or expression) in a subtree. *)
let mentioned_constructors expr =
  let acc = Hashtbl.create 16 in
  let last lid =
    match List.rev (Longident.flatten lid) with c :: _ -> Some c | [] -> None
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.P.pexp_desc with
           | P.Pexp_construct ({ txt; _ }, _) -> (
             match last txt with
             | Some c -> Hashtbl.replace acc c ()
             | None -> ())
           | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      pat =
        (fun self p ->
          (match p.P.ppat_desc with
           | P.Ppat_construct ({ txt; _ }, _) -> (
             match last txt with
             | Some c -> Hashtbl.replace acc c ()
             | None -> ())
           | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.expr it expr;
  acc

(* Does an expression syntactically involve a registered wire-codec value:
   a registered constructor, or an identifier/constructor qualified with a
   registered codec module? *)
let mentions_registry expr =
  let hit = ref false in
  let check_lid lid =
    (match Longident.flatten lid with
     | [ c ] when Hashtbl.mem registry_constructors c -> hit := true
     | m :: _ :: _ when Hashtbl.mem registry_modules m -> hit := true
     | _ -> ())
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.P.pexp_desc with
          | P.Pexp_ident { txt; _ } -> check_lid txt
          | P.Pexp_construct ({ txt; _ }, _) ->
            check_lid txt;
            Ast_iterator.default_iterator.expr self e
          | P.Pexp_apply (_, args) ->
            (* A codec-module *function* in head position (e.g.
               [Config.quorum cfg = 1]) does not make the result a codec
               value; only walk the arguments. *)
            List.iter (fun (_, a) -> self.expr self a) args
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it expr;
  !hit

(* ------------------------------------------------------ expression rules *)

let hashtbl_iterators = [ "iter"; "fold" ]
let structural_hashers = [ "hash"; "seeded_hash"; "hash_param" ]
let equality_ops = [ "="; "<>"; "=="; "!=" ]

let wall_clock_idents =
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Sys"; "time" ] ]

let print_noise_idents =
  [
    "print_endline"; "print_string"; "print_newline"; "print_int";
    "print_char"; "print_float"; "prerr_endline"; "prerr_string";
    "prerr_newline";
  ]

let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

let check_expression ctx (e : P.expression) =
  let loc = e.pexp_loc in
  match e.pexp_desc with
  | P.Pexp_ident { txt; _ } -> (
    let raw = Longident.flatten txt in
    let path = strip_stdlib raw in
    match path with
    | [ "Hashtbl"; f ] when ctx.protocol && List.mem f hashtbl_iterators ->
      flag ctx ~loc "hashtbl-iteration"
        (Printf.sprintf
           "Hashtbl.%s in a protocol library: bucket order is \
            nondeterministic; use Rsmr_sim.Stable.%s_sorted or annotate \
            with (* lint: order-insensitive *)"
           f
           (if f = "iter" then "iter" else "fold"))
    | [ m; f ]
      when ctx.protocol
           && Hashtbl.mem ctx.hashtbl_modules m
           && List.mem f hashtbl_iterators ->
      flag ctx ~loc "hashtbl-iteration"
        (Printf.sprintf
           "%s.%s in a protocol library: %s is a Hashtbl functor instance, \
            whose bucket order is nondeterministic; walk sorted keys or \
            annotate with (* lint: order-insensitive *)"
           m f m)
    | [ "Hashtbl"; f ] when ctx.state_scope && List.mem f structural_hashers ->
      flag ctx ~loc "state-hash"
        (Printf.sprintf
           "Hashtbl.%s on protocol state: structural hashing truncates \
            deep values and depends on representation; fingerprint the \
            canonical encoding with Rsmr_sim.Fnv / Rsmr_mc.Fingerprint \
            instead"
           f)
    | _ when List.mem path wall_clock_idents ->
      flag ctx ~loc "wall-clock"
        (Printf.sprintf
           "%s reads the host wall clock; simulated time comes from \
            Engine.now"
           (String.concat "." path))
    | "Random" :: _ :: _ ->
      flag ctx ~loc "ambient-random"
        (Printf.sprintf
           "%s uses the ambient stdlib PRNG; all randomness must flow from \
            the seeded Rsmr_sim.Rng"
           (String.concat "." path))
    | [ ("Printf" | "Format"); (("printf" | "eprintf") as f) ]
      when ctx.protocol ->
      flag ctx ~loc "print-noise"
        (Printf.sprintf
           "%s.%s in a protocol library; account through the Observatory \
            registry or emit on the trace bus (Rsmr_obs) instead of \
            printing"
           (List.hd path) f)
    | [ f ] when ctx.protocol && List.mem f print_noise_idents ->
      flag ctx ~loc "print-noise"
        (Printf.sprintf
           "%s in a protocol library; account through the Observatory \
            registry or emit on the trace bus (Rsmr_obs) instead of \
            printing"
           f)
    | [ "compare" ]
      when ctx.protocol
           && (raw = [ "Stdlib"; "compare" ]
              || not (Hashtbl.mem ctx.toplevel "compare")) ->
      flag ctx ~loc "poly-compare"
        "polymorphic compare in a protocol library; use the dedicated \
         compare_* function or a keyed comparison"
    | _ -> ())
  | P.Pexp_apply
      ({ pexp_desc = P.Pexp_ident { txt = Longident.Lident op; _ }; _ },
       [ (_, a); (_, b) ])
    when ctx.protocol && List.mem op equality_ops ->
    if mentions_registry a || mentions_registry b then
      flag ctx ~loc "poly-compare"
        (Printf.sprintf
           "polymorphic %s applied to a wire-codec value; use the \
            dedicated equal_*/compare_* function"
           op)
  | _ -> ()

(* The names a file binds to an application of the stdlib's hash-table
   functors, at any depth ([module T = Hashtbl.Make (K)], or a local
   [let module]).  Name-based, like the rest of this lint. *)
let hashtbl_modules_of structure =
  let acc = Hashtbl.create 4 in
  let note (name : string option Location.loc) (me : P.module_expr) =
    match (name.txt, me.pmod_desc) with
    | Some n, P.Pmod_apply ({ pmod_desc = P.Pmod_ident { txt; _ }; _ }, _) -> (
      match strip_stdlib (Longident.flatten txt) with
      | [ "Hashtbl"; ("Make" | "MakeSeeded") ] -> Hashtbl.replace acc n ()
      | _ -> ())
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          note mb.pmb_name mb.pmb_expr;
          Ast_iterator.default_iterator.module_binding self mb);
      expr =
        (fun self e ->
          (match e.pexp_desc with
           | P.Pexp_letmodule (name, me, _) -> note name me
           | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure;
  acc

let check_decode_body ctx (body : P.expression) =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.P.pexp_desc with
           | P.Pexp_ident { txt = Longident.Lident "failwith"; _ }
           | P.Pexp_ident
               { txt = Longident.Ldot (Longident.Lident "Stdlib",
                                       "failwith"); _ } ->
             flag ctx ~loc:e.pexp_loc "decode-failwith"
               "failwith in a decode path; raise a tagged error (e.g. \
                Codec.Truncated) so malformed input is rejected \
                deterministically"
           | P.Pexp_assert
               { pexp_desc =
                   P.Pexp_construct
                     ({ txt = Longident.Lident "false"; _ }, None);
                 _ } ->
             flag ctx ~loc:e.pexp_loc "decode-failwith"
               "assert false in a decode path; raise a tagged error (e.g. \
                Codec.Truncated) instead"
           | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body

let check_codec ctx codec =
  let union exprs =
    let acc = Hashtbl.create 32 in
    List.iter
      (fun e ->
        Hashtbl.iter (fun c () -> Hashtbl.replace acc c ())
          (mentioned_constructors e))
      exprs;
    acc
  in
  let in_encode = union codec.c_encode in
  let in_decode = union codec.c_decode in
  List.iter
    (fun (tname, ctors, _tloc) ->
      List.iter
        (fun (c, cloc) ->
          if not (Hashtbl.mem in_encode c) then
            flag ctx ~loc:cloc "codec-exhaustive"
              (Printf.sprintf
                 "constructor %s of type %s never appears in this \
                  module's encode: the tag would be silently \
                  unencodable" c tname);
          if not (Hashtbl.mem in_decode c) then
            flag ctx ~loc:cloc "codec-exhaustive"
              (Printf.sprintf
                 "constructor %s of type %s never appears in this \
                  module's decode: the tag would be silently dropped on \
                  the wire" c tname))
        ctors)
    codec.c_variants

(* ------------------------------------------------------------- file scan *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let scan_ml ~cfg ~scope_all ~root relpath =
  report.files <- report.files + 1;
  let src = read_file (Filename.concat root relpath) in
  let protocol =
    scope_all || List.exists (fun d -> starts_with d relpath) protocol_dirs
  in
  let state_scope =
    scope_all || List.exists (fun d -> starts_with d relpath) state_hash_dirs
  in
  let ctx =
    {
      relpath;
      protocol;
      state_scope;
      cfg;
      suppressions = scan_suppressions src;
      toplevel = Hashtbl.create 32;
      hashtbl_modules = Hashtbl.create 4;
    }
  in
  match
    let lexbuf = Lexing.from_string src in
    Location.init lexbuf relpath;
    Parse.implementation lexbuf
  with
  | exception _ ->
    flag ctx
      ~loc:Location.(in_file relpath)
      "parse-error" "file does not parse; rsmr-lint cannot analyze it"
  | structure ->
    (* hygiene: every lib/ module carries an interface *)
    if
      (scope_all || starts_with "lib/" relpath)
      && not (Sys.file_exists (Filename.concat root (relpath ^ "i")))
    then
      flag ctx
        ~loc:Location.(in_file relpath)
        "missing-mli" "module has no .mli interface";
    Hashtbl.iter
      (fun name _ -> Hashtbl.replace ctx.toplevel name ())
      (toplevel_values structure);
    Hashtbl.iter
      (fun name () -> Hashtbl.replace ctx.hashtbl_modules name ())
      (hashtbl_modules_of structure);
    (* codec cross-check *)
    (match codec_of_structure relpath structure with
     | Some codec -> check_codec ctx codec
     | None -> ());
    (* expression-level rules *)
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            check_expression ctx e;
            Ast_iterator.default_iterator.expr self e);
        value_binding =
          (fun self vb ->
            (match vb.P.pvb_pat.P.ppat_desc with
             | P.Ppat_var { txt; _ } when starts_with "decode" txt ->
               check_decode_body ctx vb.pvb_expr
             | _ -> ());
            Ast_iterator.default_iterator.value_binding self vb);
      }
    in
    it.structure it structure

(* Pre-pass: register codec modules so poly-compare knows the wire types,
   wherever they are referenced from. *)
let prescan_ml ~root relpath =
  let src = read_file (Filename.concat root relpath) in
  match
    let lexbuf = Lexing.from_string src in
    Location.init lexbuf relpath;
    Parse.implementation lexbuf
  with
  | exception _ -> ()
  | structure -> (
    match codec_of_structure relpath structure with
    | Some codec -> register_codec codec
    | None -> ())

let rec walk ~root rel acc =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || entry = ".git" then acc
        else walk ~root (Filename.concat rel entry) acc)
      acc
      (let entries = Sys.readdir abs in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix rel ".ml" then rel :: acc
  else acc

(* ------------------------------------------------------------------ main *)

(* exempt lines whose path prefix matches nothing on disk: the file moved
   or was deleted, leaving a suppression that covers nothing. *)
let check_stale_exempts cfg ~root ~config_file =
  if severity cfg "stale-exemption" <> Diag.Off then
    List.iter
      (fun (rule, prefix, lineno) ->
        report.violations <-
          {
            Diag.file = config_file;
            line = lineno;
            col = 0;
            rule = "stale-exemption";
            msg =
              Printf.sprintf
                "exempt %s %s matches no file under the root: dead \
                 suppression (file moved or deleted?)"
                rule prefix;
            sev = severity cfg "stale-exemption";
            chain = [];
          }
          :: report.violations)
      (Lint_config.stale_exempts cfg ~root)

let usage =
  "usage: rsmr_lint [--root DIR] [--config FILE] [--format text|json] \
   [--scope-all] DIR..."

let () =
  let root = ref "." in
  let config_file = ref None in
  let scope_all = ref false in
  let format = ref Diag.Text in
  let dirs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--root" :: d :: rest ->
      root := d;
      parse_args rest
    | "--config" :: f :: rest ->
      config_file := Some f;
      parse_args rest
    | "--scope-all" :: rest ->
      scope_all := true;
      parse_args rest
    | "--format" :: f :: rest -> (
      match Diag.format_of_string f with
      | Some f ->
        format := f;
        parse_args rest
      | None ->
        Printf.eprintf "rsmr_lint: unknown format %S\n%s\n" f usage;
        exit 2)
    | d :: rest when not (starts_with "--" d) ->
      dirs := d :: !dirs;
      parse_args rest
    | arg :: _ ->
      Printf.eprintf "rsmr_lint: unknown argument %S\n%s\n" arg usage;
      exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !dirs = [] then begin
    Printf.eprintf "%s\n" usage;
    exit 2
  end;
  let cfg =
    match !config_file with
    | Some f ->
      let cfg = Lint_config.parse f in
      check_stale_exempts cfg ~root:!root ~config_file:f;
      cfg
    | None -> Lint_config.default ()
  in
  let files =
    List.concat_map (fun d -> List.rev (walk ~root:!root d [])) (List.rev !dirs)
  in
  List.iter (prescan_ml ~root:!root) files;
  List.iter (scan_ml ~cfg ~scope_all:!scope_all ~root:!root) files;
  let violations = List.sort Diag.compare report.violations in
  let errors = Diag.errors violations in
  let warns = Diag.warnings violations in
  let summary =
    Printf.sprintf
      "rsmr-lint: %d file(s) scanned, %d error(s), %d warning(s), %d \
       suppression(s) honoured"
      report.files errors warns report.suppressed
  in
  Diag.print ~format:!format ~tool:"rsmr-lint" violations ~summary;
  exit (if errors > 0 then 1 else 0)
