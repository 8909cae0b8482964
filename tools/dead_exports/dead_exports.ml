(* dead-exports — list every value exported from lib/ that no other
   compilation unit references.

   Reads the .cmt/.cmti typedtrees dune leaves under a build directory.
   An export is a [val] in a lib/**/*.mli, at top level or inside a
   submodule or functor result signature; the [val]s of a module type
   are a contract, not an export, and are never listed.  A reference is
   any value path in a .cmt under lib, bin, test, examples, tools or
   bench, resolved through module aliases, opens and dune library
   wrappers (Rsmr_tt.Tt), with functor applications resolved to the
   functor ([module R = Raft.Make (Kv)] makes [R.create] a use of
   [Raft.Make.create]).  References from the exporting unit itself do
   not count.

   A module that is checked against a module type — passed to a functor
   whose parameter has that type, or including it in its own interface
   ([include Block_intf.S with module Msg := Msg]) — uses every export
   that the module type names, so those are not listed either.

   Known gaps: two units with the same name in different libraries
   share one namespace, so a reference to one counts for both; and only
   module types declared in the scanned tree are known, so a lib module
   passed to a standard-library functor (Map.Make) would have the values
   that functor needs listed.

   Output: one [FILE:LINE: NAME] per dead export, sorted; NAME is
   qualified by its submodule path ([Msg.write]).  A clean tree prints
   nothing; the exit status is 0 either way.

     dead_exports.exe BUILD_DIR      (e.g. _build/default) *)

module T = Typedtree
open Rsmr_tt.Tt

let scanned_roots = [ "lib"; "bin"; "test"; "examples"; "tools"; "bench" ]

(* export key ("Vr.Msg.write") -> file, line *)
let exports : (string, string * int) Hashtbl.t = Hashtbl.create 512

(* module type ("Block_intf.S") -> the val paths it names ("Msg.size") *)
let contracts : (string, string list) Hashtbl.t = Hashtbl.create 32

(* (module, module type) pairs: the module is checked against the type *)
let checked : (string * string) list ref = ref []
let referenced : (string, unit) Hashtbl.t = Hashtbl.create 4096

let rec contract_vals prefix (sg : T.signature) =
  List.concat_map
    (fun (item : T.signature_item) ->
      match item.T.sig_desc with
      | T.Tsig_value vd -> [ prefix ^ vd.T.val_name.txt ]
      | T.Tsig_module { T.md_name = { txt = Some name; _ };
                        md_type = { T.mty_desc = T.Tmty_signature sub; _ };
                        _ } ->
        contract_vals (prefix ^ name ^ ".") sub
      | _ -> [])
    sg.T.sig_items

let modtype_path env (mty : T.module_type) =
  match mty.T.mty_desc with
  | T.Tmty_ident (p, _)
  | T.Tmty_with ({ T.mty_desc = T.Tmty_ident (p, _); _ }, _) ->
    resolve_module env p
  | _ -> None

let add_contract prefix (mtd : T.module_type_declaration) =
  match mtd.T.mtd_type with
  | Some { T.mty_desc = T.Tmty_signature sg; _ } ->
    Hashtbl.replace contracts (prefix ^ "." ^ mtd.T.mtd_name.txt)
      (contract_vals "" sg)
  | _ -> ()

let rec scan_interface env prefix (sg : T.signature) =
  List.iter
    (fun (item : T.signature_item) ->
      match item.T.sig_desc with
      | T.Tsig_value vd ->
        let file, line, _ = loc_pos vd.T.val_loc in
        Hashtbl.add exports (prefix ^ "." ^ vd.T.val_name.txt) (file, line)
      | T.Tsig_module { T.md_name = { txt = Some name; _ }; md_type; _ } ->
        let rec body (mty : T.module_type) =
          match mty.T.mty_desc with
          | T.Tmty_signature sub -> scan_interface env (prefix ^ "." ^ name) sub
          | T.Tmty_functor (_, res) -> body res
          | _ -> ()
        in
        body md_type
      | T.Tsig_modtype mtd -> add_contract prefix mtd
      | T.Tsig_include { T.incl_mod; _ } -> (
        match modtype_path env incl_mod with
        | Some mt -> checked := (prefix, mt) :: !checked
        | None -> ())
      | _ -> ())
    sg.T.sig_items

(* The functor a module expression applies, seen through currying. *)
let rec functor_head env (me : T.module_expr) =
  match (unwrap_module_expr me).T.mod_desc with
  | T.Tmod_ident (p, _) -> resolve_module env p
  | T.Tmod_apply (f, _, _) -> functor_head env f
  | _ -> None

let bind_application env id (me : T.module_expr) =
  match (id, (unwrap_module_expr me).T.mod_desc) with
  | Some id, T.Tmod_apply _ -> (
    match functor_head env me with
    | Some f ->
      let uid = Ident.unique_name id in
      Hashtbl.remove env.opaque uid;
      Hashtbl.replace env.modules uid f
    | None -> ())
  | _ -> ()

(* Tt.register_structure leaves functor applications opaque; bind them
   to their functor, in nested structures and functor bodies too. *)
let rec bind_applications env prefix (str : T.structure) =
  List.iter
    (fun (item : T.structure_item) ->
      match item.T.str_desc with
      | T.Tstr_module mb -> bind_module env prefix mb
      | T.Tstr_recmodule mbs -> List.iter (bind_module env prefix) mbs
      | T.Tstr_modtype mtd -> add_contract prefix mtd
      | _ -> ())
    str.T.str_items

and bind_module env prefix (mb : T.module_binding) =
  bind_application env mb.T.mb_id mb.T.mb_expr;
  let sub =
    prefix ^ "." ^ Option.value mb.T.mb_name.txt ~default:"_"
  in
  let rec body (me : T.module_expr) =
    match (unwrap_module_expr me).T.mod_desc with
    | T.Tmod_structure str -> bind_applications env sub str
    | T.Tmod_functor (_, b) -> body b
    | _ -> ()
  in
  body mb.T.mb_expr

let is_own unit key =
  String.length key > String.length unit
  && String.sub key 0 (String.length unit + 1) = unit ^ "."

let scan_implementation env unit (str : T.structure) =
  let note_module_use f (arg : T.module_expr) =
    match ((unwrap_module_expr arg).T.mod_desc, f.T.mod_type) with
    | ( T.Tmod_ident (p, _),
        Types.Mty_functor (Types.Named (_, Types.Mty_ident mt), _) ) -> (
      match (resolve_module env p, resolve_module env mt) with
      | Some m, Some mt -> checked := (m, mt) :: !checked
      | _ -> ())
    | _ -> ()
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.T.exp_desc with
           | T.Texp_ident (p, _, _) -> (
             match resolve_value env p with
             | Some key when not (is_own unit key) ->
               Hashtbl.replace referenced key ()
             | _ -> ())
           | T.Texp_letmodule (id, _, _, me, _) ->
             register_letmodule env id me;
             bind_application env id me
           | _ -> ());
          Tast_iterator.default_iterator.expr self e);
      module_expr =
        (fun self me ->
          (match me.T.mod_desc with
           | T.Tmod_apply (f, arg, _) -> note_module_use f arg
           | _ -> ());
          Tast_iterator.default_iterator.module_expr self me);
    }
  in
  iter.Tast_iterator.structure iter str

let load path =
  match Cmt_format.read_cmt path with
  | exception _ ->
    Printf.eprintf "dead_exports: cannot read %s (skipped)\n" path
  | cmt -> (
    let unit = unit_display cmt.Cmt_format.cmt_modname in
    let env = fresh_env () in
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      register_structure env unit str;
      bind_applications env unit str;
      scan_implementation env unit str
    | Cmt_format.Interface sg -> (
      match cmt.Cmt_format.cmt_sourcefile with
      | Some src when String.starts_with ~prefix:"lib/" src ->
        scan_interface env unit sg
      | _ -> ())
    | _ -> ())

let () =
  match Sys.argv with
  | [| _; build |] ->
    let files =
      List.concat_map
        (fun root ->
          let dir = Filename.concat build root in
          if Sys.file_exists dir then List.rev (walk dir []) else [])
        scanned_roots
    in
    List.iter register_wrapper_of_filename files;
    List.iter load files;
    List.iter
      (fun (m, mt) ->
        List.iter
          (fun v -> Hashtbl.replace referenced (m ^ "." ^ v) ())
          (Option.value (Hashtbl.find_opt contracts mt) ~default:[]))
      !checked;
    Hashtbl.fold
      (fun key (file, line) acc ->
        if Hashtbl.mem referenced key then acc
        else
          let name =
            String.sub key
              (String.index key '.' + 1)
              (String.length key - String.index key '.' - 1)
          in
          (file, line, name) :: acc)
      exports []
    |> List.sort compare
    |> List.iter (fun (file, line, name) ->
           Printf.printf "%s:%d: %s\n" file line name)
  | _ ->
    prerr_endline "usage: dead_exports BUILD_DIR";
    exit 2
