(* rsmr-mirror — symbolic write/read shape analysis.

   Every wire message, command envelope and snapshot in this repo goes
   through a hand-rolled codec (lib/app/codec.ml).  rsmr-lint checks
   surface idioms and rsmr-flow checks effect reachability, but neither
   can see the one property hand-rolled codecs actually break: that the
   decoder consumes byte-for-byte what the encoder produces.  A codec
   bug (swapped fields, a tag emitted but never dispatched, zigzag read
   as varint) round-trips fine on the values the unit tests happen to
   pick, or worse, decodes cleanly into the wrong value.

   This tool lifts every write and read body into a symbolic byte shape
   (tools/mirror/shape.mli) from the .cmt typedtrees dune already
   produces, pairs encoders with decoders by naming convention or an
   explicit [[@@rsmr.codec "Name"]] attribute, and checks per pair:

   - per-constructor shape equality up to the zero-copy equivalences
     (Writer.string ~ Reader.string/framed, Writer.nested Sub.write ~
     Reader.framed r Sub.read), with the shortest divergence witness
     per mismatch; [Writer.to_string f v] is the body of [f], unframed,
     and so is a match case that returns a top-level constant built that
     way (a shared encoding); a constructor dispatch whose cases all lift
     to the same bytes is those bytes
                                                         [mirror-shape]
   - encoder tag set = decoder dispatched tag set, no duplicates on
     either side                                           [mirror-tag]
   - every decoder tag dispatch defaults to raising Codec.Truncated
                                                       [mirror-default]
   - every writer body has a reader counterpart and vice versa
     (one-way canonical encoders opt out with
     [[@@rsmr.codec.oneway]]; pure delegation like [size] is exempt)
                                                      [mirror-unpaired]
   - at most one effectful codec operation per unspecified-evaluation-
     order position (tuple/constructor/record/argument siblings)
                                                    [mirror-eval-order]
   - constructs the abstraction cannot see through are surfaced, not
     silently trusted                                   [mirror-opaque]

   Severities and path exemptions come from the shared lint.conf; the
   unit "Codec" itself (the combinator library) is skipped. *)

module T = Typedtree
module Diag = Rsmr_diag.Diag
module Lint_config = Rsmr_diag.Lint_config
open Rsmr_tt.Tt

let findings : Shape.finding list ref = ref []
let note f = findings := f :: !findings
let bodies : Lift.body list ref = ref []
let modules_loaded = ref 0

(* ------------------------------------------------------- cmt traversal *)

let rec collect_structure env prefix (str : T.structure) =
  List.iter (collect_item env prefix) str.T.str_items

and collect_item env prefix (item : T.structure_item) =
  match item.T.str_desc with
  | T.Tstr_value (_, vbs) ->
    List.iter
      (fun vb ->
        match vb_name vb with
        | Some (_, name) -> (
          let key = prefix ^ "." ^ name in
          match Lift.lift_binding ~note ~env ~key vb with
          | Some body -> bodies := body :: !bodies
          | None -> ())
        | None -> ())
      vbs
  | T.Tstr_module mb -> collect_module env prefix mb
  | T.Tstr_recmodule mbs -> List.iter (collect_module env prefix) mbs
  | _ -> ()

and collect_module env prefix (mb : T.module_binding) =
  match mb.T.mb_id with
  | None -> ()
  | Some id -> (
    let sub = prefix ^ "." ^ Ident.name id in
    let me = unwrap_module_expr mb.T.mb_expr in
    match me.T.mod_desc with
    | T.Tmod_structure str -> collect_structure env sub str
    | T.Tmod_functor _ ->
      let rec peel (me : T.module_expr) =
        match me.T.mod_desc with
        | T.Tmod_functor (_, body) -> peel (unwrap_module_expr body)
        | T.Tmod_structure str -> collect_structure env sub str
        | _ -> ()
      in
      peel me
    | _ -> ())

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ ->
    Printf.eprintf "rsmr_mirror: cannot read %s (skipped)\n" path
  | cmt -> (
    let modname = unit_display cmt.Cmt_format.cmt_modname in
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation _ when modname = "Codec" ->
      (* the combinator library itself defines the primitives; its
         bodies are the abstraction's ground truth, not codecs *)
      incr modules_loaded
    | Cmt_format.Implementation str ->
      incr modules_loaded;
      let env = fresh_env () in
      register_structure env modname str;
      collect_structure env modname str
    | _ -> ())

(* ------------------------------------------------------------- pairing *)

(* A body whose shape is nothing but same-sink delegation ([size],
   [encode] wrappers) adds no shape information of its own; it is
   checked if it pairs, but never demanded to. *)
let pure_delegation (b : Lift.body) =
  List.for_all (function Shape.Call _ -> true | _ -> false) b.Lift.b_items

let assemble_pairs ws rs =
  let paired : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let pairs = ref [] in
  let add (w : Lift.body) (r : Lift.body) =
    Hashtbl.replace paired w.Lift.b_key r.Lift.b_key;
    pairs := (w, r) :: !pairs
  in
  (* explicit [@@rsmr.codec "Name"] groups first *)
  let named side =
    List.filter_map
      (fun (b : Lift.body) ->
        match b.Lift.b_codec_name with
        | Some n -> Some (n, b)
        | None -> None)
      side
  in
  let wnamed = named ws and rnamed = named rs in
  List.iter
    (fun (n, (w : Lift.body)) ->
      match List.filter (fun (n', _) -> n' = n) rnamed with
      | [ (_, r) ] -> add w r
      | [] ->
        note
          (Shape.finding ~rule:"mirror-unpaired" w.Lift.b_loc
             (Printf.sprintf
                "encoder %s is tagged [@@rsmr.codec %S] but no reader \
                 body carries that tag"
                w.Lift.b_key n)
             ())
      | _ :: _ :: _ ->
        note
          (Shape.finding ~rule:"mirror-unpaired" w.Lift.b_loc
             (Printf.sprintf
                "[@@rsmr.codec %S] tags more than one reader body" n)
             ()))
    wnamed;
  List.iter
    (fun (n, (r : Lift.body)) ->
      if not (List.exists (fun (n', _) -> n' = n) wnamed) then
        note
          (Shape.finding ~rule:"mirror-unpaired" r.Lift.b_loc
             (Printf.sprintf
                "decoder %s is tagged [@@rsmr.codec %S] but no writer \
                 body carries that tag"
                r.Lift.b_key n)
             ()))
    rnamed;
  (* then naming conventions *)
  List.iter
    (fun (w : Lift.body) ->
      if w.Lift.b_codec_name = None && not (Hashtbl.mem paired w.Lift.b_key)
      then
        let prefix, name = Pairing.split_key w.Lift.b_key in
        match Pairing.reader_name name with
        | None -> ()
        | Some rname -> (
          let rkey =
            if prefix = "" then rname else prefix ^ "." ^ rname
          in
          match
            List.find_opt (fun (r : Lift.body) -> r.Lift.b_key = rkey) rs
          with
          | Some r when r.Lift.b_codec_name = None -> add w r
          | _ -> ()))
    ws;
  !pairs

(* ---------------------------------------------------------- rendering *)

let diag_of_finding cfg (f : Shape.finding) =
  let rule = f.Shape.f_rule in
  let sev = Lint_config.severity cfg rule in
  let file, line, col = loc_pos f.Shape.f_loc in
  if sev = Diag.Off then None
  else if Lint_config.exempt cfg rule file then None
  else if
    match f.Shape.f_alt_file with
    | Some alt -> Lint_config.exempt cfg rule alt
    | None -> false
  then None
  else
    Some
      {
        Diag.file;
        line;
        col;
        rule;
        sev;
        msg = f.Shape.f_msg;
        chain = f.Shape.f_chain;
      }

(* ------------------------------------------------------------------ main *)

let usage =
  "usage: rsmr_mirror [--config FILE] [--format text|json] [--min-pairs N] \
   DIR-or-CMT..."

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let () =
  let config_file = ref None in
  let format = ref Diag.Text in
  let min_pairs = ref 0 in
  let inputs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--config" :: f :: rest ->
      config_file := Some f;
      parse_args rest
    | "--min-pairs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
        min_pairs := n;
        parse_args rest
      | Some _ | None ->
        Printf.eprintf "rsmr_mirror: --min-pairs expects a count, got %S\n%s\n"
          n usage;
        exit 2)
    | "--format" :: f :: rest -> (
      match Diag.format_of_string f with
      | Some f ->
        format := f;
        parse_args rest
      | None ->
        Printf.eprintf "rsmr_mirror: unknown format %S\n%s\n" f usage;
        exit 2)
    | d :: rest when not (starts_with "--" d) ->
      inputs := d :: !inputs;
      parse_args rest
    | arg :: _ ->
      Printf.eprintf "rsmr_mirror: unknown argument %S\n%s\n" arg usage;
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
  let files =
    List.concat_map (fun d -> List.rev (walk d [])) (List.rev !inputs)
  in
  List.iter register_wrapper_of_filename files;
  List.iter load_cmt files;
  let all =
    List.sort
      (fun (a : Lift.body) b -> String.compare a.Lift.b_key b.Lift.b_key)
      !bodies
  in
  let ws = List.filter (fun b -> b.Lift.b_writer && not b.Lift.b_reader) all
  and rs = List.filter (fun b -> b.Lift.b_reader && not b.Lift.b_writer) all
  and mixed =
    List.filter (fun b -> b.Lift.b_writer && b.Lift.b_reader) all
  in
  if Sys.getenv_opt "RSMR_MIRROR_DEBUG" <> None then
    List.iter
      (fun (b : Lift.body) ->
        Printf.eprintf "%s [%s%s] %s\n" b.Lift.b_key
          (if b.Lift.b_writer then "W" else "")
          (if b.Lift.b_reader then "R" else "")
          (Shape.render (Shape.normalize b.Lift.b_items)))
      all;
  List.iter
    (fun (b : Lift.body) ->
      note
        (Shape.finding ~rule:"mirror-unpaired" b.Lift.b_loc
           (Printf.sprintf
              "%s touches both a writer and a reader sink; it cannot be \
               paired"
              b.Lift.b_key)
           ()))
    mixed;
  let pairs = assemble_pairs ws rs in
  let pair_tbl : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((w : Lift.body), (r : Lift.body)) ->
      Hashtbl.replace pair_tbl (w.Lift.b_key ^ "\x00" ^ r.Lift.b_key) ())
    pairs;
  let pairs_ok a b =
    Hashtbl.mem pair_tbl (a ^ "\x00" ^ b)
    || Hashtbl.mem pair_tbl (b ^ "\x00" ^ a)
    || Pairing.conventional a b
    || Pairing.conventional b a
  in
  let in_pair : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((w : Lift.body), (r : Lift.body)) ->
      Hashtbl.replace in_pair w.Lift.b_key ();
      Hashtbl.replace in_pair r.Lift.b_key ())
    pairs;
  List.iter
    (fun (b : Lift.body) ->
      if
        (not (Hashtbl.mem in_pair b.Lift.b_key))
        && (not b.Lift.b_oneway)
        && not (pure_delegation b)
      then
        note
          (Shape.finding ~rule:"mirror-unpaired" b.Lift.b_loc
             (Printf.sprintf
                "%s %s has no %s counterpart (pair by naming convention \
                 or [@@rsmr.codec], or mark [@@rsmr.codec.oneway])"
                (if b.Lift.b_writer then "encoder" else "decoder")
                b.Lift.b_key
                (if b.Lift.b_writer then "decoder" else "encoder"))
             ()))
    (ws @ rs);
  List.iter
    (fun (w, r) -> Check.check_pair ~note ~pairs_ok ~writer:w ~reader:r)
    pairs;
  List.iter (fun r -> Check.check_reader_defaults ~note r) rs;
  let ds =
    List.filter_map (diag_of_finding cfg) !findings |> List.sort Diag.compare
  in
  let errors = Diag.errors ds in
  let warns = Diag.warnings ds in
  let summary =
    Printf.sprintf
      "rsmr-mirror: %d module(s) loaded, %d codec body(ies) (%d writer(s), \
       %d reader(s)), %d pair(s) checked, %d error(s), %d warning(s)"
      !modules_loaded (List.length all) (List.length ws) (List.length rs)
      (List.length pairs) errors warns
  in
  Diag.print ~format:!format ~tool:"rsmr-mirror" ds ~summary;
  (* Coverage floor: a refactor that silently drops codec bodies out of
     the analysis (renamed sink, lost attribute) would otherwise pass
     with a shrunken, vacuous pair set. *)
  if List.length pairs < !min_pairs then begin
    Printf.eprintf
      "rsmr-mirror: only %d pair(s) assembled, expected at least %d — did a \
       codec fall out of the analysis?\n"
      (List.length pairs) !min_pairs;
    exit 1
  end;
  exit (if errors > 0 then 1 else 0)
