(* AST-level invariant checker: parse with the compiler's own parser,
   walk the Parsetree with an Ast_iterator, report rule hits.  The
   rules encode invariants introduced by earlier PRs (deterministic
   parallel sweeps, DLS-based tracing, tolerance-based numerics); see
   DESIGN.md section 9 for the rationale behind each id.

   This module owns the finding/report vocabulary for BOTH analysis
   stages: the fast syntactic stage implemented here, and the
   typedtree-based deep stage ({!Deep_engine}) which reuses the same
   record types so the driver can merge the two into one summary. *)

open Parsetree

(* One hop of an interprocedural witness: function key, file, line of
   the call (or of the offending site for the last element). *)
type chain_elt = { c_fn : string; c_file : string; c_line : int }

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
  chain : chain_elt list;
      (* call-chain witness for deep findings; [] for syntactic ones *)
}

(* A [@lint.allow]/[@@@lint.allow]/[@lint.alloc_ok] site, identified by
   the attribute's own source position plus one rule id it names.
   Declared sites that are never [used] by either stage are stale
   suppressions. *)
type allow_site = { a_file : string; a_line : int; a_id : string }

type report = {
  files_checked : int;
  findings : finding list;
  suppressed : int;
  declared_allows : allow_site list;
  used_allows : allow_site list;
}

let empty_report =
  {
    files_checked = 0;
    findings = [];
    suppressed = 0;
    declared_allows = [];
    used_allows = [];
  }

(* The full rule vocabulary.  d/c/h rules are enforced by the syntactic
   stage below; i-rules by the typedtree deep stage; s1 is produced by
   the driver's staleness pass. *)
let syntactic_rules =
  [
    ( "d1-nondet",
      "no Random.*, Sys.time, Unix.gettimeofday, Sys.getenv or \
       hash-randomised tables in lib/; only Flexile_util.Prng and the \
       Trace clock may source nondeterminism, and a deployment setting \
       read from the environment carries an allow" );
    ( "d2-float-eq",
      "no polymorphic =/<>/compare on float operands in lib/; use \
       Flexile_util.Float_cmp helpers" );
    ( "d3-tbl-order",
      "no Hashtbl.iter/Hashtbl.fold in lib/; use Flexile_util.Tbl sorted \
       traversals so bucket order cannot leak into solver output" );
    ( "c1-concurrency",
      "no Domain.spawn, Mutex, Atomic or Condition outside \
       lib/util/parallel.ml and lib/util/trace.ml" );
    ( "c2-global-mut",
      "no module-level mutable ref/Hashtbl globals in lib/ without an \
       allow" );
    ( "h1-io",
      "no Obj.magic, exit or direct printing in lib/; output flows \
       through Trace or the CLI layer" );
  ]

let deep_rules =
  [
    ( "i1-trans-nondet",
      "no function transitively reachable from the Scenario_engine / \
       Parallel entry points (or from a closure handed to a shard API) \
       may touch a nondeterministic primitive, however many calls deep" );
    ( "i2-shard-capture",
      "a closure passed into a Parallel / Scenario_engine shard API must \
       not write captured or module-level mutable state (ref, array, \
       bytes, Hashtbl, mutable record fields); per-worker state comes \
       from the init callback or Domain.DLS" );
    ( "i3-noalloc",
      "the body of a [@lint.noalloc] kernel, and every lib/ function it \
       transitively calls, must not heap-allocate outside the \
       [@lint.alloc_ok] whitelist (amortized arena growth, error paths), \
       nor pass or return a float in a call into another compilation \
       unit (boxed under -opaque)" );
    ( "u1-unused-export",
      "every val in a lib/ interface is used by another compilation unit \
       of lib/, bin/, bench/, flexbench/ or examples/ (test/ does not \
       count); a test-only oracle carries [@@lint.allow] and a reason" );
    ( "u2-single-value-knob",
      "every optional parameter of a val in a lib/ interface is passed \
       by some caller in lib/, bin/, bench/, flexbench/ or examples/, and \
       every field of a record type whose unit exports a default_* value \
       is set by some record expression there other than that default; \
       a knob only a test sets carries [@lint.allow] and a reason" );
  ]

let driver_rules =
  [
    ( "s1-stale-suppress",
      "every [@lint.allow]/[@@@lint.allow]/[@lint.alloc_ok] attribute \
       must still match at least one finding; stale suppressions are \
       reported and fatal under --strict-suppressions" );
  ]

let rules = syntactic_rules @ deep_rules @ driver_rules

(* ------------------------------------------------------------------ *)
(* Zones                                                               *)
(* ------------------------------------------------------------------ *)

type zone = Lib | Bin | Bench | Test | Other

let norm file = String.map (fun c -> if c = '\\' then '/' else c) file

let zone_of_file file =
  let segs = String.split_on_char '/' (norm file) in
  let rec first = function
    | [] -> Other
    | "lib" :: _ -> Lib
    | "bin" :: _ -> Bin
    | "bench" :: _ -> Bench
    | "test" :: _ -> Test
    | _ :: tl -> first tl
  in
  first segs

let rule_active rule zone =
  match rule with
  | "c1-concurrency" -> zone = Lib || zone = Bin || zone = Bench
  | _ -> zone = Lib

(* ------------------------------------------------------------------ *)
(* Identifier classification                                           *)
(* ------------------------------------------------------------------ *)

let flat lid = String.concat "." (Longident.flatten lid)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let d1_ident n =
  if has_prefix ~prefix:"Random." n then
    Some (n ^ " draws from the global RNG; use Flexile_util.Prng")
  else
    match n with
    | "Sys.time" | "Unix.gettimeofday" | "Unix.time" ->
        Some (n ^ " reads the system clock; use Flexile_util.Trace.now_s")
    | "Hashtbl.hash" | "Hashtbl.seeded_hash" | "Hashtbl.randomize" ->
        Some (n ^ " invites hash-order dependence; key tables explicitly")
    | "Sys.getenv" | "Sys.getenv_opt" ->
        Some
          (n
         ^ " lets the environment change results; pass the value in, or \
            allow a deployment setting with a reason")
    | _ -> None

let c1_ident n =
  match n with
  | "Domain.spawn" | "Domain.join" -> true
  | _ ->
      has_prefix ~prefix:"Mutex." n
      || has_prefix ~prefix:"Atomic." n
      || has_prefix ~prefix:"Condition." n

let print_idents =
  [
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_int";
    "prerr_float"; "prerr_bytes";
  ]

let h1_ident n =
  if n = "Obj.magic" then Some "Obj.magic defeats the type system"
  else if n = "exit" then
    Some "exit in lib/ kills the host process; return errors to the caller"
  else if List.mem n print_idents then
    Some (n ^ " prints directly; output must flow through Trace or the CLI")
  else None

(* Float.* functions that do NOT return float: calling one of these is
   not evidence that the surrounding comparison is float-typed. *)
let float_mod_non_float =
  [
    "Float.is_nan"; "Float.is_finite"; "Float.is_integer"; "Float.sign_bit";
    "Float.equal"; "Float.compare"; "Float.to_int"; "Float.to_string";
  ]

let float_ops =
  [
    "+."; "-."; "*."; "/."; "**"; "~-."; "~+."; "abs_float"; "sqrt"; "exp";
    "log"; "log10"; "cos"; "sin"; "tan"; "atan"; "atan2"; "ceil"; "floor";
    "mod_float"; "float_of_int"; "float_of_string"; "float";
  ]

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float";
    "min_float" ]

let rec is_float_type t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
  | Ptyp_constr ({ txt = Longident.Ldot (Longident.Lident "Float", "t"); _ }, [])
    -> true
  | Ptyp_poly (_, t') -> is_float_type t'
  | _ -> false

(* Conservative syntactic evidence that an expression is float-typed:
   literals, float arithmetic, Float.* calls, known float constants and
   explicit (e : float) ascriptions.  Anything else is assumed non-float
   so the rule stays low-noise. *)
let rec is_floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (inner, t) -> is_float_type t || is_floatish inner
  | Pexp_ident { txt; _ } -> List.mem (flat txt) float_consts
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let n = flat txt in
      List.mem n float_ops
      || (has_prefix ~prefix:"Float." n && not (List.mem n float_mod_non_float))
  | _ -> false

let eq_ops = [ "="; "<>"; "=="; "!=" ]

(* ------------------------------------------------------------------ *)
(* Suppression attributes                                              *)
(* ------------------------------------------------------------------ *)

let split_ids s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char ',')
  |> List.filter (fun x -> x <> "")

let string_payload = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

(* [(id, line-of-attribute)] for every id named by a [@lint.allow]
   attribute in [attrs]; a [@lint.alloc_ok] attribute declares the
   pseudo-id "alloc-ok" (it is consumed by the deep stage's noalloc
   checker, but declared here so staleness covers it too). *)
let allow_sites_of_attrs attrs =
  List.concat_map
    (fun a ->
      let line = a.attr_loc.Location.loc_start.Lexing.pos_lnum in
      if a.attr_name.txt = "lint.allow" then
        match string_payload a.attr_payload with
        | Some s -> List.map (fun id -> (id, line)) (split_ids s)
        | None -> []
      else if a.attr_name.txt = "lint.alloc_ok" then [ ("alloc-ok", line) ]
      else [])
    attrs

let allow_ids_of_attrs attrs = List.map fst (allow_sites_of_attrs attrs)

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

type stack_entry = { se_id : string; se_line : int; mutable se_used : bool }

type ctx = {
  cfile : string;
  zone : zone;
  mutable out : finding list;
  mutable n_suppressed : int;
  mutable allow_stack : stack_entry list;
  mutable expr_depth : int;
  mutable declared : allow_site list;
  mutable used : allow_site list;
}

let declare_site ctx (id, line) =
  let s = { a_file = ctx.cfile; a_line = line; a_id = id } in
  if not (List.mem s ctx.declared) then ctx.declared <- s :: ctx.declared

let mark_used ctx se =
  if not se.se_used then begin
    se.se_used <- true;
    let s = { a_file = ctx.cfile; a_line = se.se_line; a_id = se.se_id } in
    if not (List.mem s ctx.used) then ctx.used <- s :: ctx.used
  end

let hit ctx rule (loc : Location.t) message =
  if rule_active rule ctx.zone then
    match List.find_opt (fun se -> se.se_id = rule) ctx.allow_stack with
    | Some se ->
        mark_used ctx se;
        ctx.n_suppressed <- ctx.n_suppressed + 1
    | None ->
        let p = loc.loc_start in
        ctx.out <-
          {
            file = ctx.cfile;
            line = p.pos_lnum;
            col = p.pos_cnum - p.pos_bol;
            rule;
            message;
            chain = [];
          }
          :: ctx.out

let with_allow ctx sites f =
  List.iter (declare_site ctx) sites;
  if sites = [] then f ()
  else begin
    let saved = ctx.allow_stack in
    ctx.allow_stack <-
      List.map
        (fun (id, line) -> { se_id = id; se_line = line; se_used = false })
        sites
      @ saved;
    Fun.protect ~finally:(fun () -> ctx.allow_stack <- saved) f
  end

let check_ident ctx loc n =
  (match d1_ident n with Some m -> hit ctx "d1-nondet" loc m | None -> ());
  if n = "Hashtbl.iter" || n = "Hashtbl.fold" then
    hit ctx "d3-tbl-order" loc
      (n
     ^ " visits bindings in bucket order; use Flexile_util.Tbl.sorted_bindings \
        so the order cannot leak into results");
  if c1_ident n then
    hit ctx "c1-concurrency" loc
      (n
     ^ " outside lib/util/{parallel,trace}.ml; route concurrency through \
        Flexile_util.Parallel");
  match h1_ident n with Some m -> hit ctx "h1-io" loc m | None -> ()

let is_false_lit e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) -> true
  | _ -> false

let check_apply ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let n = flat txt in
      let positional =
        List.filter_map
          (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
          args
      in
      (* d2: =/<>/compare with a float-looking operand *)
      (if
         (List.mem n eq_ops || n = "compare" || n = "Stdlib.compare")
         && List.length positional >= 2
         && List.exists is_floatish positional
       then
         hit ctx "d2-float-eq" e.pexp_loc
           ("polymorphic " ^ n
          ^ " on a float operand; use Flexile_util.Float_cmp (eq/zero for \
             tolerance, exactly_* when exact IEEE equality is intended)"));
      (* d1: Hashtbl.create ~random:true (or non-literal) *)
      match n with
      | "Hashtbl.create" ->
          List.iter
            (fun (l, a) ->
              match l with
              | Asttypes.Labelled "random" when not (is_false_lit a) ->
                  hit ctx "d1-nondet" e.pexp_loc
                    "Hashtbl.create ~random makes iteration order depend on \
                     a per-process seed"
              | _ -> ())
            args
      | _ -> ())
  | _ -> ()

(* Module-level mutable state: [let x = ref ...] or
   [let x = Hashtbl.create ...] directly under a structure. *)
let rec global_mut_kind e =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) -> global_mut_kind inner
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match flat txt with
      | "ref" -> Some "ref"
      | "Hashtbl.create" -> Some "Hashtbl"
      | _ -> None)
  | _ -> None

let binding_name vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | _ -> "_"

let check_global_binding ctx vb =
  match global_mut_kind vb.pvb_expr with
  | None -> ()
  | Some kind ->
      let sites =
        allow_sites_of_attrs (vb.pvb_attributes @ vb.pvb_expr.pexp_attributes)
      in
      with_allow ctx sites (fun () ->
          hit ctx "c2-global-mut" vb.pvb_loc
            ("module-level mutable state (" ^ kind ^ " '" ^ binding_name vb
           ^ "'); pass state explicitly, or annotate with [@lint.allow \
              \"c2-global-mut\"] and a justification"))

let make_iterator ctx =
  let default = Ast_iterator.default_iterator in
  let expr self e =
    let sites = allow_sites_of_attrs e.pexp_attributes in
    with_allow ctx sites (fun () ->
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> check_ident ctx e.pexp_loc (flat txt)
        | Pexp_apply _ -> check_apply ctx e
        | _ -> ());
        ctx.expr_depth <- ctx.expr_depth + 1;
        Fun.protect
          ~finally:(fun () -> ctx.expr_depth <- ctx.expr_depth - 1)
          (fun () -> default.expr self e))
  in
  (* a floating [@@@lint.allow] covers the rest of its structure *)
  let structure self items =
    let rec go = function
      | [] -> ()
      | ({ pstr_desc = Pstr_attribute a; _ } as item) :: rest ->
          self.Ast_iterator.structure_item self item;
          with_allow ctx (allow_sites_of_attrs [ a ]) (fun () -> go rest)
      | item :: rest ->
          self.Ast_iterator.structure_item self item;
          go rest
    in
    go items
  in
  let structure_item self item =
    let item_sites =
      match item.pstr_desc with
      | Pstr_eval (_, attrs) -> allow_sites_of_attrs attrs
      | _ -> []
    in
    with_allow ctx item_sites (fun () ->
        (match item.pstr_desc with
        | Pstr_value (_, vbs) when ctx.expr_depth = 0 ->
            List.iter (check_global_binding ctx) vbs
        | _ -> ());
        default.structure_item self item)
  in
  let value_binding self vb =
    let sites = allow_sites_of_attrs vb.pvb_attributes in
    with_allow ctx sites (fun () -> default.value_binding self vb)
  in
  (* an interface [val]'s or record field's allow serves the deep
     stage's u1/u2; declaring it here lets the staleness pass judge it *)
  let value_description self vd =
    let sites = allow_sites_of_attrs vd.pval_attributes in
    with_allow ctx sites (fun () -> default.value_description self vd)
  in
  let label_declaration self ld =
    let sites = allow_sites_of_attrs ld.pld_attributes in
    with_allow ctx sites (fun () -> default.label_declaration self ld)
  in
  {
    default with
    expr;
    structure;
    structure_item;
    value_binding;
    value_description;
    label_declaration;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let is_intf file =
  String.length file >= 4 && String.sub file (String.length file - 4) 4 = ".mli"

let check_source ~file src =
  let ctx =
    {
      cfile = norm file;
      zone = zone_of_file file;
      out = [];
      n_suppressed = 0;
      allow_stack = [];
      expr_depth = 0;
      declared = [];
      used = [];
    }
  in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  (try
     let it = make_iterator ctx in
     if is_intf file then it.signature it (Parse.interface lexbuf)
     else it.structure it (Parse.implementation lexbuf)
   with exn ->
     let line, col =
       match exn with
       | Syntaxerr.Error e ->
           let loc = Syntaxerr.location_of_error e in
           (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
       | _ -> (lexbuf.lex_curr_p.pos_lnum, 0)
     in
     ctx.out <-
       {
         file = ctx.cfile;
         line;
         col;
         rule = "parse-error";
         message = "source failed to parse: " ^ Printexc.to_string exn;
         chain = [];
       }
       :: ctx.out);
  {
    files_checked = 1;
    findings = List.rev ctx.out;
    suppressed = ctx.n_suppressed;
    declared_allows = List.rev ctx.declared;
    used_allows = List.rev ctx.used;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_file path = check_source ~file:path (read_file path)

let union a b = a @ List.filter (fun x -> not (List.mem x a)) b

let merge reports =
  List.fold_left
    (fun acc r ->
      {
        files_checked = acc.files_checked + r.files_checked;
        findings = acc.findings @ r.findings;
        suppressed = acc.suppressed + r.suppressed;
        declared_allows = union acc.declared_allows r.declared_allows;
        used_allows = union acc.used_allows r.used_allows;
      })
    empty_report reports

(* ------------------------------------------------------------------ *)
(* Staleness                                                           *)
(* ------------------------------------------------------------------ *)

(* A suppression is only judged by a run that actually enforces the
   rules it can silence: a syntactic-only run must not call the
   deep-stage attributes stale. *)
type stale = {
  st_file : string;
  st_line : int;
  st_id : string;  (* rule id, or "alloc-ok" *)
  st_detail : string;
}

let known_ids = "alloc-ok" :: List.map fst rules

(* A syntactic-only run cannot tell whether the deep stage still needs
   a suppression (the sanctioned wrappers in Float_cmp / Tbl silence
   i1 seeds via their d2/d3 attributes), so it only reports unknown
   rule ids; full adjudication happens when [deep] runs both stages. *)
let stale_suppressions ~deep report =
  let checked id =
    deep
    && (List.mem_assoc id syntactic_rules
       || List.mem_assoc id deep_rules
       || id = "alloc-ok")
  in
  List.filter_map
    (fun s ->
      let stale detail =
        Some
          { st_file = s.a_file; st_line = s.a_line; st_id = s.a_id;
            st_detail = detail }
      in
      if List.mem s report.used_allows then None
      else if not (List.mem s.a_id known_ids) then
        stale "names an unknown rule id (typo?)"
      else if
        checked s.a_id
        && rule_active
             (if s.a_id = "alloc-ok" then "i3-noalloc" else s.a_id)
             (zone_of_file s.a_file)
        (* deep-rule attributes only count where the deep stage looks *)
        && ((not (List.mem_assoc s.a_id deep_rules)) && s.a_id <> "alloc-ok"
           || zone_of_file s.a_file = Lib)
      then stale "no longer matches any finding; delete it"
      else None)
    report.declared_allows

let finding_of_stale s =
  {
    file = s.st_file;
    line = s.st_line;
    col = 0;
    rule = "s1-stale-suppress";
    message = Printf.sprintf "stale suppression '%s': %s" s.st_id s.st_detail;
    chain = [];
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_chain chain =
  match chain with
  | [] -> ""
  | _ ->
      "\n    via "
      ^ String.concat "\n     -> "
          (List.map
             (fun c -> Printf.sprintf "%s (%s:%d)" c.c_fn c.c_file c.c_line)
             chain)

let render_finding f =
  Printf.sprintf "%s:%d: [%s] %s%s" f.file f.line f.rule f.message
    (render_chain f.chain)

let json_summary ?(stale = []) r =
  let module Json = Flexile_util.Json in
  let str s = Json.String s in
  let finding f =
    Json.Object
      ([
         ("file", str f.file);
         ("line", Json.int f.line);
         ("col", Json.int f.col);
         ("rule", str f.rule);
         ("message", str f.message);
       ]
      @
      match f.chain with
      | [] -> []
      | chain ->
          [
            ( "chain",
              Json.Array
                (List.map
                   (fun c ->
                     Json.Object
                       [
                         ("fn", str c.c_fn);
                         ("file", str c.c_file);
                         ("line", Json.int c.c_line);
                       ])
                   chain) );
          ])
  in
  let stale_json s =
    Json.Object
      [
        ("file", str s.st_file);
        ("line", Json.int s.st_line);
        ("id", str s.st_id);
        ("detail", str s.st_detail);
      ]
  in
  Json.Object
    [
      ("schema", str "flexile-lint-summary");
      ("version", Json.int 3);
      ("files_checked", Json.int r.files_checked);
      ("total_findings", Json.int (List.length r.findings));
      ("suppressed", Json.int r.suppressed);
      ( "counts",
        Json.Object
          (List.map
             (fun (id, _) ->
               (id, Json.int (List.length (List.filter (fun f -> f.rule = id) r.findings))))
             rules) );
      ("findings", Json.Array (List.map finding r.findings));
      ("stale_suppressions", Json.Array (List.map stale_json stale));
    ]
