(* Typedtree-based deep analysis stage: read .cmt artifacts, summarise
   every top-level function (calls, nondeterministic primitive uses,
   allocation sites, shard-closure captures, lint attributes) and every
   value reference, then run the four analyses over the summaries:

     i1-trans-nondet  taint reachability from sweep entry points
     i2-shard-capture mutable captures written inside shard closures
     i3-noalloc       transitive allocation freedom of pivot kernels
     u1-unused-export interface vals no other unit references
     u2-single-value-knob optional parameters nobody passes, and fields
                      of a defaulted record that only the default sets

   The walk also reports a Trace clock read inside a branch condition
   under the syntactic rule id d1-nondet: a search that decides on the
   clock answers differently on a slower machine.

   Soundness boundaries (documented in DESIGN.md section 14): i2 flags
   direct writes to captured state only (aliasing a captured ref into a
   callee escapes the analysis); i3 sees float boxing only where it is
   certain under dune's -opaque dev profile — a call into another
   analysed unit whose type takes or returns a float — and sanctions
   local refs whose every use is a deref/assign; calls through
   parameters are unfollowable and are therefore rejected inside
   noalloc contexts and ignored elsewhere. *)

open Typedtree
module L = Lint_engine

let default_roots = [ "Flexile_te.Scenario_engine"; "Flexile_util.Parallel" ]

let shard_apis =
  [
    "Flexile_util.Parallel.map";
    "Flexile_te.Scenario_engine.sweep";
    "Flexile_te.Scenario_engine.sweep_some";
    "Flexile_te.Scenario_engine.sweep_losses";
  ]

(* ------------------------------------------------------------------ *)
(* Canonical names                                                     *)
(* ------------------------------------------------------------------ *)

(* Dune wraps libraries, so cross-module references surface as
   "Flexile_util__Parallel.map"; canonical form replaces the mangling
   with a dot and drops the "Stdlib." prefix stdlib references carry. *)
let split_on_string ~sep s =
  let ls = String.length sep and n = String.length s in
  let rec go start i acc =
    if i + ls > n then List.rev (String.sub s start (n - start) :: acc)
    else if String.sub s i ls = sep then
      go (i + ls) (i + ls) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* "Flexile_util__Parallel" -> "Flexile_util.Parallel"; the empty tail
   of dune's "Flexile_util__" alias module is dropped. *)
let canon_component c =
  split_on_string ~sep:"__" c |> List.filter (( <> ) "") |> String.concat "."

let strip_stdlib n =
  if String.length n > 7 && String.sub n 0 7 = "Stdlib." then
    String.sub n 7 (String.length n - 7)
  else n

let canon_name aliases raw =
  let n =
    String.split_on_char '.' raw
    |> List.map canon_component
    |> String.concat "." |> strip_stdlib
  in
  (* a local [module P = Flexile_util.Parallel] alias makes references
     surface as "P.map"; rewrite the head through the per-cmt map *)
  match String.index_opt n '.' with
  | None -> n
  | Some i -> (
      let head = String.sub n 0 i in
      match Hashtbl.find_opt aliases head with
      | Some target -> target ^ String.sub n i (String.length n - i)
      | None -> n)

(* ------------------------------------------------------------------ *)
(* Primitive / whitelist tables                                        *)
(* ------------------------------------------------------------------ *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Raw nondeterminism seeds for i1, each tagged with the syntactic
   rule it descends from so a [@lint.allow "d3-tbl-order"] on the
   sanctioned wrapper also silences the seed.  The sanctioned sources
   (Flexile_util.Prng, Trace.now_s) are deliberately absent: taint
   starts at the primitives the sanctioned wrappers exist to replace. *)
let nondet_prim n =
  if has_prefix ~prefix:"Random." n then
    Some (n ^ " (global RNG)", "d1-nondet")
  else
    match n with
    | "Sys.time" | "Unix.gettimeofday" | "Unix.time" ->
        Some (n ^ " (wall clock)", "d1-nondet")
    | "Hashtbl.hash" | "Hashtbl.seeded_hash" | "Hashtbl.randomize" ->
        Some (n ^ " (hash randomisation)", "d1-nondet")
    | "Hashtbl.iter" | "Hashtbl.fold" ->
        Some (n ^ " (unordered table traversal)", "d3-tbl-order")
    | _ -> None

let eq_prims = [ "="; "<>"; "=="; "!="; "compare" ]

(* (canonical mutator, index of the positional argument it mutates) *)
let mutators =
  [
    (":=", 0); ("incr", 0); ("decr", 0);
    ("Array.set", 0); ("Array.unsafe_set", 0); ("Array.fill", 0);
    ("Array.blit", 2);
    ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Bytes.fill", 0);
    ("Bytes.blit", 2); ("Bytes.blit_string", 2);
    ("Hashtbl.add", 0); ("Hashtbl.replace", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.reset", 0); ("Hashtbl.clear", 0);
    ("Buffer.add_string", 0); ("Buffer.add_char", 0); ("Buffer.add_buffer", 0);
    ("Buffer.clear", 0); ("Buffer.reset", 0);
    ("Queue.push", 1); ("Queue.add", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Queue.clear", 0);
    ("Stack.push", 1); ("Stack.pop", 0); ("Stack.clear", 0);
    ("Atomic.set", 0); ("Atomic.exchange", 0); ("Atomic.incr", 0);
    ("Atomic.decr", 0); ("Atomic.fetch_and_add", 0);
  ]

(* Stdlib calls known to return a fresh heap block. *)
let allocators =
  [
    "ref"; "Array.make"; "Array.create_float"; "Array.init"; "Array.copy";
    "Array.append"; "Array.sub"; "Array.of_list"; "Array.to_list";
    "Array.map"; "Array.mapi"; "Array.make_matrix";
    "Bytes.create"; "Bytes.make"; "Bytes.copy"; "Bytes.sub";
    "Bytes.to_string"; "Bytes.of_string";
    "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.map"; "^"; "@";
    "Hashtbl.create"; "Buffer.create"; "Buffer.contents"; "Queue.create";
    "Stack.create"; "Printf.sprintf"; "Format.asprintf";
    "List.map"; "List.mapi"; "List.rev"; "List.append"; "List.concat";
    "List.filter"; "List.filter_map"; "List.init"; "List.sort";
    "List.rev_map"; "List.concat_map";
  ]

(* Calls a [@lint.noalloc] body may make freely: arithmetic, in-place
   array/bytes access, comparisons, glue.  Everything else must resolve
   to an analysed function or be [@lint.alloc_ok]. *)
let noalloc_whitelist =
  [
    "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "+."; "-."; "*."; "/."; "**"; "~-"; "~-."; "~+"; "~+."; "abs";
    "abs_float"; "sqrt"; "exp"; "log"; "log10"; "floor"; "ceil";
    "float_of_int"; "int_of_float"; "truncate"; "succ"; "pred";
    "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "compare"; "min"; "max";
    "&&"; "||"; "not"; "ignore"; "fst"; "snd"; "@@"; "|>";
    "!"; ":="; "incr"; "decr";
    "Array.get"; "Array.set"; "Array.unsafe_get"; "Array.unsafe_set";
    "Array.length"; "Array.fill"; "Array.blit";
    "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get"; "Bytes.unsafe_set";
    "Bytes.length"; "Bytes.fill"; "Bytes.blit";
    "String.length"; "String.get"; "String.unsafe_get";
    "Float.abs"; "Float.min"; "Float.max"; "Float.compare"; "Float.equal";
    "Float.of_int"; "Float.to_int"; "Float.is_nan";
    "Int.abs"; "Int.min"; "Int.max"; "Int.compare"; "Int.equal";
  ]

(* Error paths are exempt from i3: allocation feeding a raise is fine. *)
let raise_family =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

(* ------------------------------------------------------------------ *)
(* Per-function summaries                                              *)
(* ------------------------------------------------------------------ *)

type fn_info = {
  key : string;  (* canonical dotted name, e.g. Flexile_lp.Sparse.Svec.add *)
  fi_file : string;
  fi_line : int;
  mutable calls : (string * int) list;  (* canonical callee, call line *)
  mutable float_calls : (string * int) list;
      (* applied callees whose type takes or returns a float *)
  mutable param_calls : (string * int) list;  (* unfollowable callees *)
  mutable prims : (string * int) list;  (* nondet primitive, line *)
  mutable allocs : (string * int) list;  (* what allocates, line *)
  mutable shard_caller : bool;
  noalloc : bool;
  alloc_ok : bool;
  allows : (string * int) list;  (* allow id, attribute line *)
}

(* A [val] of an analysed unit's interface, for u1 and u2. *)
type export = {
  x_key : string;  (* canonical dotted name, e.g. Flexile_util.Tbl.find *)
  x_unit : string;  (* canonical name of the exporting unit *)
  x_file : string;
  x_line : int;
  x_allows : (string * int) list;
  x_opts : string list;  (* labels of its optional parameters *)
}

(* A field of an exported record type, for u2. *)
type field = {
  f_type : string;  (* canonical type name, e.g. Flexile_core.Builder.options *)
  f_name : string;
  f_file : string;
  f_line : int;
  f_allows : (string * int) list;
}

type global = {
  fns : (string, fn_info) Hashtbl.t;
  mutable fn_order : string list;  (* reverse definition order *)
  ident_keys : (string, string) Hashtbl.t;  (* Ident.unique_name -> key *)
  mutable findings : L.finding list;
  mutable n_suppressed : int;
  mutable used_allows : L.allow_site list;
  mutable exports : export list;  (* reverse read order *)
  refs : (string, string list) Hashtbl.t;
      (* canonical value name -> units that mention it *)
  mutable fields : field list;  (* reverse read order *)
  mutable defaulted : string list;
      (* record types whose unit exports a [default_*] value of them *)
  passed : (string, unit) Hashtbl.t;  (* "fn ?label" passed explicitly *)
  set_fields : (string, unit) Hashtbl.t;
      (* "type.field" set by a record expression other than its default *)
}

let has_attr name attrs =
  List.exists (fun a -> a.Parsetree.attr_name.txt = name) attrs

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* Suppression for a deep finding in [file]: a matching [@lint.allow]
   among [allows] (the attributes on the function's binding, or on an
   exported [val]). *)
let emit_at g ~file ~allows rule ~line ~chain message =
  match List.find_opt (fun (id, _) -> id = rule) allows with
  | Some (id, aline) ->
      g.n_suppressed <- g.n_suppressed + 1;
      let s = { L.a_file = file; a_line = aline; a_id = id } in
      if not (List.mem s g.used_allows) then
        g.used_allows <- s :: g.used_allows
  | None ->
      g.findings <-
        { L.file; line; col = 0; rule; message; chain } :: g.findings

let emit g fn = emit_at g ~file:fn.fi_file ~allows:fn.allows

let mark_alloc_ok_used g fn =
  match List.find_opt (fun (id, _) -> id = "alloc-ok") fn.allows with
  | Some (_, aline) ->
      let s = { L.a_file = fn.fi_file; a_line = aline; a_id = "alloc-ok" } in
      if not (List.mem s g.used_allows) then
        g.used_allows <- s :: g.used_allows
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Expression walk (one top-level binding at a time)                   *)
(* ------------------------------------------------------------------ *)

type walk_state = {
  g : global;
  fn : fn_info;
  aliases : (string, string) Hashtbl.t;
  locals : (string, [ `Walked | `Param ]) Hashtbl.t;
  mutable err_depth : int;  (* > 0 inside raise/assert arguments *)
  mutable cond_depth : int;  (* > 0 inside an if/while condition or guard *)
  mutable allow_scope : (string * int) list;
      (* expression-level [@lint.allow] sites currently in scope *)
}

(* A seed primitive is silenced by an in-scope or binding-level allow
   naming either the taint rule or the syntactic rule it descends
   from; that keeps the sanctioned wrappers (Tbl, Float_cmp) out of
   the taint graph without a second annotation vocabulary. *)
let record_prim st (what, seed_rule) line =
  let sites = st.allow_scope @ st.fn.allows in
  match
    List.find_opt
      (fun (id, _) -> id = seed_rule || id = "i1-trans-nondet")
      sites
  with
  | Some (id, aline) ->
      st.g.n_suppressed <- st.g.n_suppressed + 1;
      let s = { L.a_file = st.fn.fi_file; a_line = aline; a_id = id } in
      if not (List.mem s st.g.used_allows) then
        st.g.used_allows <- s :: st.g.used_allows
  | None -> st.fn.prims <- (what, line) :: st.fn.prims

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

(* A float parameter or result anywhere along the arrow spine. *)
let rec float_in_signature ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, r, _) -> is_float_ty a || float_in_signature r
  | Types.Tpoly (t, _) -> float_in_signature t
  | _ -> is_float_ty ty

let rec is_arrow_ty ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> is_arrow_ty t
  | _ -> false

(* Resolve a value reference to one of: an unfollowable local (`Param),
   an already-walked local binding (`Walked), or a canonical name. *)
let resolve st path =
  match path with
  | Path.Pident id when not (Ident.global id) -> (
      let uid = Ident.unique_name id in
      match Hashtbl.find_opt st.g.ident_keys uid with
      | Some key -> `Name key
      | None -> (
          match Hashtbl.find_opt st.locals uid with
          | Some `Walked -> `Local
          | Some `Param -> `Param (Ident.name id)
          | None -> `Param (Ident.name id)))
  | _ -> `Name (canon_name st.aliases (Path.name path))

let record_alloc st what line =
  if st.err_depth = 0 then st.fn.allocs <- (what, line) :: st.fn.allocs

let clocks = [ "Flexile_util.Trace.now_s"; "Flexile_util.Trace.now_ns" ]

(* A clock read that decides a branch makes the result depend on the
   machine's speed.  Only the condition's own syntax is looked at: a
   read bound by [let] first and tested later is not seen. *)
let check_clock st n line =
  if st.cond_depth > 0 && List.mem n clocks then
    emit_at st.g ~file:st.fn.fi_file ~allows:(st.allow_scope @ st.fn.allows)
      "d1-nondet" ~line ~chain:[]
      (Printf.sprintf
         "%s decides a branch in %s, so the answer depends on machine \
          speed; stop on a work budget (nodes, pivots, iterations) instead"
         n st.fn.key)

(* A bare identifier only matters when it denotes a function value (it
   may be handed onward and executed); plain data uses of parameters
   and toplevel constants are not call edges. *)
let record_ref st path e =
  if is_arrow_ty e.exp_type then
    let loc = e.exp_loc in
    match resolve st path with
    | `Local -> ()
    | `Param p -> st.fn.param_calls <- (p, line_of loc) :: st.fn.param_calls
    | `Name n -> (
        (match nondet_prim n with
        | Some prim -> record_prim st prim (line_of loc)
        | None -> ());
        check_clock st n (line_of loc);
        if List.mem n allocators then
          record_alloc st ("call to " ^ n) (line_of loc);
        (* keep an edge to every analysed function referenced, applied
           or not: a function value handed onward still executes *)
        if String.contains n '.' || Hashtbl.mem st.g.fns n then
          st.fn.calls <- (n, line_of loc) :: st.fn.calls)

let positional args =
  List.filter_map
    (fun (l, a) -> match (l, a) with Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

let rec base_ident e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_field (e', _, _) -> base_ident e'
  | _ -> None

(* ---- capture analysis for i2 ------------------------------------- *)

let bound_idents_of closure =
  let tbl = Hashtbl.create 16 in
  let default = Tast_iterator.default_iterator in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun self p ->
    (match classify_pattern p with
    | Value ->
        List.iter
          (fun id -> Hashtbl.replace tbl (Ident.unique_name id) ())
          (pat_bound_idents p)
    | Computation -> ());
    default.pat self p
  in
  let it = { default with pat } in
  it.expr it closure;
  (* the closure's own parameters count as bound *)
  let rec params e =
    match e.exp_desc with
    | Texp_function { param; cases; _ } ->
        Hashtbl.replace tbl (Ident.unique_name param) ();
        List.iter (fun c -> params c.c_rhs) cases
    | _ -> ()
  in
  params closure;
  tbl

(* Writes inside [closure] whose target is not locally bound: the
   captured-mutable-state race class.  DLS accesses are exempt (that is
   the sanctioned per-worker channel). *)
let closure_capture_writes st closure =
  let bound = bound_idents_of closure in
  let out = ref [] in
  let captured p =
    match p with
    | Path.Pident id when not (Ident.global id) ->
        not (Hashtbl.mem bound (Ident.unique_name id))
    | _ -> true (* module-level state is never per-worker *)
  in
  let describe p = canon_name st.aliases (Path.name p) in
  let default = Tast_iterator.default_iterator in
  let expr self e =
    (match e.exp_desc with
    | Texp_setfield (tgt, _, _, _) -> (
        match base_ident tgt with
        | Some p when captured p ->
            out := ("mutable field of '" ^ describe p ^ "'", line_of e.exp_loc) :: !out
        | _ -> ())
    | Texp_apply ({ exp_desc = Texp_ident (fp, _, _); _ }, args) -> (
        let n = canon_name st.aliases (Path.name fp) in
        if not (has_prefix ~prefix:"Domain.DLS." n) then
          match List.assoc_opt n mutators with
          | Some idx -> (
              match List.nth_opt (positional args) idx with
              | Some tgt -> (
                  match base_ident tgt with
                  | Some p when captured p ->
                      out :=
                        (Printf.sprintf "'%s' via %s" (describe p) n,
                         line_of e.exp_loc)
                        :: !out
                  | _ -> ())
              | None -> ())
          | None -> ())
    | _ -> ());
    default.expr self e
  in
  let it = { default with expr } in
  it.expr it closure;
  List.rev !out

(* ---- sanctioned local refs for i3 -------------------------------- *)

let ref_ops = [ "!"; ":="; "incr"; "decr" ]

(* true when every occurrence of [uid] in [body] is as the first
   positional argument of a deref/assign primitive *)
let ref_stays_local st uid body =
  let escaped = ref false in
  let default = Tast_iterator.default_iterator in
  let rec expr self e =
    match e.exp_desc with
    | Texp_apply
        (({ exp_desc = Texp_ident (fp, _, _); _ } as f),
         ((Asttypes.Nolabel, Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ })
          :: rest))
      when Ident.unique_name id = uid
           && List.mem (canon_name st.aliases (Path.name fp)) ref_ops ->
        expr self f;
        List.iter (function _, Some a -> expr self a | _, None -> ()) rest
    | Texp_ident (Path.Pident id, _, _) when Ident.unique_name id = uid ->
        escaped := true
    | _ -> default.expr self e
  in
  let it = { default with expr } in
  it.expr it body;
  not !escaped

(* ---- the main per-binding walk ----------------------------------- *)

let rec walk_expr st e =
  match L.allow_sites_of_attrs e.exp_attributes with
  | [] -> walk_expr_desc st e
  | sites ->
      let saved = st.allow_scope in
      st.allow_scope <- sites @ saved;
      Fun.protect
        ~finally:(fun () -> st.allow_scope <- saved)
        (fun () -> walk_expr_desc st e)

and walk_cond st e =
  st.cond_depth <- st.cond_depth + 1;
  walk_expr st e;
  st.cond_depth <- st.cond_depth - 1

and walk_expr_desc st e =
  let default = Tast_iterator.default_iterator in
  let self =
    { default with expr = (fun _ e -> walk_expr st e) }
  in
  match e.exp_desc with
  | Texp_ident (p, _, _) -> record_ref st p e
  | Texp_function { param; cases; _ } ->
      (* a closure materialising mid-body is an allocation; the leading
         curried spine of a binding is peeled before walk_expr is ever
         called, so anything reaching here really allocates *)
      record_alloc st "closure" (line_of e.exp_loc);
      Hashtbl.replace st.locals (Ident.unique_name param) `Param;
      List.iter
        (fun c ->
          List.iter
            (fun id -> Hashtbl.replace st.locals (Ident.unique_name id) `Param)
            (pat_bound_idents c.c_lhs);
          Option.iter (walk_cond st) c.c_guard;
          walk_expr st c.c_rhs)
        cases
  | Texp_let
      ( Nonrecursive,
        [
          {
            vb_pat = { pat_desc = Tpat_var (id, _); _ };
            vb_expr =
              {
                exp_desc =
                  Texp_apply
                    ( { exp_desc = Texp_ident (rp, _, _); _ },
                      [ (Asttypes.Nolabel, Some init) ] );
                _;
              };
            _;
          };
        ],
        body )
    when canon_name st.aliases (Path.name rp) = "ref"
         && ref_stays_local st (Ident.unique_name id) body ->
      (* non-escaping scratch ref: sanctioned, see DESIGN.md section 14 *)
      walk_expr st init;
      Hashtbl.replace st.locals (Ident.unique_name id) `Walked;
      walk_expr st body
  | Texp_let (_, vbs, body) ->
      List.iter
        (fun vb ->
          List.iter
            (fun id -> Hashtbl.replace st.locals (Ident.unique_name id) `Walked)
            (pat_bound_idents vb.vb_pat);
          walk_expr st vb.vb_expr)
        vbs;
      walk_expr st body
  | Texp_apply (f, args) ->
      (match f.exp_desc with
      | Texp_ident (fp, _, _) -> (
          match resolve st fp with
          | `Local -> ()
          | `Param p ->
              st.fn.param_calls <- (p, line_of e.exp_loc) :: st.fn.param_calls
          | `Name n ->
              (match nondet_prim n with
              | Some prim -> record_prim st prim (line_of e.exp_loc)
              | None -> ());
              check_clock st n (line_of e.exp_loc);
              (if List.mem n eq_prims then
                 let pos = positional args in
                 if List.length pos >= 2 && List.exists (fun a -> is_float_ty a.exp_type) pos
                 then
                   record_prim st
                     ("polymorphic " ^ n ^ " on float", "d2-float-eq")
                     (line_of e.exp_loc));
              if List.mem n allocators then
                record_alloc st ("call to " ^ n) (line_of e.exp_loc);
              if String.contains n '.' || Hashtbl.mem st.g.fns n then
                st.fn.calls <- (n, line_of e.exp_loc) :: st.fn.calls;
              if float_in_signature f.exp_type then
                st.fn.float_calls <- (n, line_of e.exp_loc) :: st.fn.float_calls;
              if List.mem n raise_family then st.err_depth <- st.err_depth + 1;
              if List.mem n shard_apis then begin
                st.fn.shard_caller <- true;
                List.iter
                  (fun (l, a) ->
                    match (l, a) with
                    | Asttypes.Labelled ("init" | "f"), Some
                        ({ exp_desc = Texp_function _; _ } as closure) ->
                        List.iter
                          (fun (what, wline) ->
                            emit st.g st.fn "i2-shard-capture" ~line:wline
                              ~chain:
                                [
                                  {
                                    L.c_fn = st.fn.key;
                                    c_file = st.fn.fi_file;
                                    c_line = line_of e.exp_loc;
                                  };
                                  {
                                    L.c_fn = n ^ " ~" ^
                                      (match l with
                                      | Asttypes.Labelled s -> s
                                      | _ -> "?");
                                    c_file = st.fn.fi_file;
                                    c_line = wline;
                                  };
                                ]
                              (Printf.sprintf
                                 "shard closure writes captured mutable state \
                                  (%s); pass per-worker state through ~init \
                                  or Domain.DLS, or reduce in the ordered \
                                  merge"
                                 what))
                          (closure_capture_writes st closure)
                    | _ -> ())
                  args
              end)
      | _ -> walk_expr st f);
      List.iter (function _, Some a -> walk_expr st a | _, None -> ()) args;
      (match f.exp_desc with
      | Texp_ident (fp, _, _) -> (
          match resolve st fp with
          | `Name n when List.mem n raise_family ->
              st.err_depth <- st.err_depth - 1
          | _ -> ())
      | _ -> ())
  | Texp_ifthenelse (c, a, b) ->
      walk_cond st c;
      walk_expr st a;
      Option.iter (walk_expr st) b
  | Texp_while (c, body) ->
      walk_cond st c;
      walk_expr st body
  | Texp_assert (inner, _) ->
      st.err_depth <- st.err_depth + 1;
      walk_expr st inner;
      st.err_depth <- st.err_depth - 1
  | Texp_tuple _ ->
      record_alloc st "tuple" (line_of e.exp_loc);
      default.expr self e
  | Texp_record _ ->
      record_alloc st "record" (line_of e.exp_loc);
      default.expr self e
  | Texp_array [] -> ()
  | Texp_array _ ->
      record_alloc st "array literal" (line_of e.exp_loc);
      default.expr self e
  | Texp_construct (_, cd, args) ->
      if args <> [] then
        record_alloc st
          ("constructor " ^ cd.Types.cstr_name)
          (line_of e.exp_loc);
      default.expr self e
  | Texp_lazy _ ->
      record_alloc st "lazy" (line_of e.exp_loc);
      default.expr self e
  | Texp_match (scrut, cases, _) ->
      walk_expr st scrut;
      List.iter
        (fun c ->
          List.iter
            (fun id -> Hashtbl.replace st.locals (Ident.unique_name id) `Walked)
            (pat_bound_idents c.c_lhs);
          Option.iter (walk_cond st) c.c_guard;
          walk_expr st c.c_rhs)
        cases
  | Texp_try (body, cases) ->
      walk_expr st body;
      List.iter
        (fun c ->
          List.iter
            (fun id -> Hashtbl.replace st.locals (Ident.unique_name id) `Walked)
            (pat_bound_idents c.c_lhs);
          Option.iter (walk_cond st) c.c_guard;
          walk_expr st c.c_rhs)
        cases
  | _ -> default.expr self e

(* Peel the curried [fun a b ->] spine of a top-level binding: the
   spine itself is the function being defined, not an allocation. *)
let rec walk_binding_body st e =
  match e.exp_desc with
  | Texp_function { param; cases = [ c ]; _ } ->
      Hashtbl.replace st.locals (Ident.unique_name param) `Param;
      List.iter
        (fun id -> Hashtbl.replace st.locals (Ident.unique_name id) `Param)
        (pat_bound_idents c.c_lhs);
      walk_binding_body st c.c_rhs
  | Texp_function { param; cases; _ } ->
      Hashtbl.replace st.locals (Ident.unique_name param) `Param;
      List.iter
        (fun c ->
          List.iter
            (fun id -> Hashtbl.replace st.locals (Ident.unique_name id) `Param)
            (pat_bound_idents c.c_lhs);
          Option.iter (walk_cond st) c.c_guard;
          walk_expr st c.c_rhs)
        cases
  | _ -> walk_expr st e

(* ------------------------------------------------------------------ *)
(* Structure walk                                                      *)
(* ------------------------------------------------------------------ *)

let rec module_alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some (Path.name p)
  | Tmod_constraint (me', _, _, _) -> module_alias_target me'
  | _ -> None

let rec walk_structure g aliases ~file ~modpath str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) ->
                  let name = Ident.name id in
                  let key = modpath ^ "." ^ name in
                  let attrs = vb.vb_attributes in
                  let fn =
                    {
                      key;
                      fi_file = file;
                      fi_line = line_of vb.vb_loc;
                      calls = [];
                      float_calls = [];
                      param_calls = [];
                      prims = [];
                      allocs = [];
                      shard_caller = false;
                      noalloc = has_attr "lint.noalloc" attrs;
                      alloc_ok = has_attr "lint.alloc_ok" attrs;
                      allows = L.allow_sites_of_attrs attrs;
                    }
                  in
                  Hashtbl.replace g.fns key fn;
                  g.fn_order <- key :: g.fn_order;
                  Hashtbl.replace g.ident_keys (Ident.unique_name id) key;
                  let st =
                    {
                      g;
                      fn;
                      aliases;
                      locals = Hashtbl.create 32;
                      err_depth = 0;
                      cond_depth = 0;
                      allow_scope = [];
                    }
                  in
                  walk_binding_body st vb.vb_expr
              | _ -> ())
            vbs
      | Tstr_module mb -> walk_module g aliases ~file ~modpath mb
      | Tstr_recmodule mbs ->
          List.iter (walk_module g aliases ~file ~modpath) mbs
      | _ -> ())
    str.str_items

and walk_module g aliases ~file ~modpath mb =
  let name =
    match mb.mb_name.txt with Some n -> n | None -> "_"
  in
  match module_alias_target mb.mb_expr with
  | Some target ->
      Hashtbl.replace aliases name (canon_name aliases (canon_component target))
  | None -> (
      let rec submod me =
        match me.mod_desc with
        | Tmod_structure str ->
            walk_structure g aliases ~file ~modpath:(modpath ^ "." ^ name) str
        | Tmod_constraint (me', _, _, _) -> submod me'
        | _ -> ()
      in
      submod mb.mb_expr)

let canon_mod modname = canon_component modname

(* ---- u1/u2 inputs: what a unit uses, what an interface exports ---- *)

(* Canonical names of a unit's own top-level values, types and
   structure modules, keyed by [Ident.unique_name]: the unit names them
   by bare identifiers, which u2 must resolve to the names its
   interface exports. *)
let own_names ~unit str =
  let tbl = Hashtbl.create 64 in
  let add modpath id =
    Hashtbl.replace tbl (Ident.unique_name id) (modpath ^ "." ^ Ident.name id)
  in
  let rec scan modpath str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter (fun vb -> List.iter (add modpath) (pat_bound_idents vb.vb_pat)) vbs
        | Tstr_type (_, decls) -> List.iter (fun d -> add modpath d.typ_id) decls
        | Tstr_module mb -> module_binding modpath mb
        | Tstr_recmodule mbs -> List.iter (module_binding modpath) mbs
        | _ -> ())
      str.str_items
  and module_binding modpath mb =
    let rec body me =
      match me.mod_desc with
      | Tmod_structure str -> Some str
      | Tmod_constraint (me', _, _, _) -> body me'
      | _ -> None
    in
    match (mb.mb_id, body mb.mb_expr) with
    | Some id, Some str ->
        add modpath id;
        scan (modpath ^ "." ^ Ident.name id) str
    | _ -> ()
  in
  scan unit str;
  tbl

(* An optional argument the caller left out reaches the typedtree as a
   [None] the type checker made up, located nowhere. *)
let passed_explicitly a = a.exp_loc <> Location.none

(* Record [str]'s uses: every value path it mentions, function or not,
   applied or not, with module aliases ([module P = ...] and [let
   module]) resolved (u1); every optional argument it passes, directly
   or by forwarding [?x] (u2a); every record field it sets, except in
   the body of its own [default_*] values (u2b). *)
let add_uses g ~unit str =
  let aliases = Hashtbl.create 8 in
  let own = own_names ~unit str in
  let alias name me =
    match module_alias_target me with
    | Some target ->
        Hashtbl.replace aliases name (canon_name aliases (canon_component target))
    | None -> ()
  in
  let rec own_prefix = function
    | Path.Pident id -> Hashtbl.find_opt own (Ident.unique_name id)
    | Path.Pdot (m, s) -> Option.map (fun k -> k ^ "." ^ s) (own_prefix m)
    | _ -> None
  in
  let qualify p =
    match own_prefix p with
    | Some k -> k
    | None -> canon_name aliases (Path.name p)
  in
  let in_default = ref false in
  let set_field (lbl : Types.label_description) =
    match Types.get_desc lbl.lbl_res with
    | Types.Tconstr (p, _, _) ->
        let ty = qualify p in
        if not (!in_default && has_prefix ~prefix:(unit ^ ".") ty) then
          Hashtbl.replace g.set_fields (ty ^ "." ^ lbl.lbl_name) ()
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let expr self e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
        let n = canon_name aliases (Path.name p) in
        let units = Option.value ~default:[] (Hashtbl.find_opt g.refs n) in
        if not (List.mem unit units) then Hashtbl.replace g.refs n (unit :: units)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        let f = qualify p in
        List.iter
          (function
            | Asttypes.Optional l, Some a when passed_explicitly a ->
                Hashtbl.replace g.passed (f ^ " ?" ^ l) ()
            | _ -> ())
          args
    | Texp_record { fields; _ } ->
        Array.iter
          (function
            | lbl, Overridden _ -> set_field lbl
            | _, Kept _ -> ())
          fields
    | Texp_setfield (_, _, lbl, _) -> set_field lbl
    | Texp_letmodule (_, { txt = Some name; _ }, _, me, _) -> alias name me
    | _ -> ());
    default.expr self e
  in
  let module_binding self mb =
    Option.iter (fun name -> alias name mb.mb_expr) mb.mb_name.txt;
    default.module_binding self mb
  in
  let value_binding self vb =
    let saved = !in_default in
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) when has_prefix ~prefix:"default_" (Ident.name id) ->
        in_default := true
    | _ -> ());
    default.value_binding self vb;
    in_default := saved
  in
  let it = { default with expr; module_binding; value_binding } in
  it.structure it str

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, r, _) -> l :: optional_labels r
  | Types.Tarrow (_, _, r, _) -> optional_labels r
  | Types.Tpoly (t, _) -> optional_labels t
  | _ -> []

let rec add_exports g ~unit ~file ~modpath sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let name = Ident.name vd.val_id in
          let ty = vd.val_val.Types.val_type in
          g.exports <-
            {
              x_key = modpath ^ "." ^ name;
              x_unit = unit;
              x_file = file;
              x_line = line_of vd.val_loc;
              x_allows = L.allow_sites_of_attrs vd.val_attributes;
              x_opts = optional_labels ty;
            }
            :: g.exports;
          (match Types.get_desc ty with
          | Types.Tconstr (Path.Pident t, [], _)
            when has_prefix ~prefix:"default_" name ->
              g.defaulted <- (modpath ^ "." ^ Ident.name t) :: g.defaulted
          | _ -> ())
      | Tsig_type (_, decls) ->
          List.iter
            (fun d ->
              match d.typ_kind with
              | Ttype_record lds ->
                  List.iter
                    (fun ld ->
                      g.fields <-
                        {
                          f_type = modpath ^ "." ^ Ident.name d.typ_id;
                          f_name = Ident.name ld.ld_id;
                          f_file = file;
                          f_line = line_of ld.ld_loc;
                          f_allows = L.allow_sites_of_attrs ld.ld_attributes;
                        }
                        :: g.fields)
                    lds
              | _ -> ())
            decls
      | Tsig_module
          {
            md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _;
          } ->
          add_exports g ~unit ~file ~modpath:(modpath ^ "." ^ name) sg
      | _ -> ())
    sg.sig_items

let sourcefile cmt path =
  match cmt.Cmt_format.cmt_sourcefile with Some f -> f | None -> path

(* An analysed unit is walked for the i-rules and its [.cmti] (next to
   the [.cmt]) read for exports; a caller unit only adds references. *)
let load_cmt g ~analysed path =
  try
    let cmt = Cmt_format.read_cmt path in
    (match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
        let unit = canon_mod cmt.Cmt_format.cmt_modname in
        add_uses g ~unit str;
        if analysed then begin
          walk_structure g (Hashtbl.create 8) ~file:(sourcefile cmt path)
            ~modpath:unit str;
          let cmti = Filename.remove_extension path ^ ".cmti" in
          if Sys.file_exists cmti then
            let intf = Cmt_format.read_cmt cmti in
            match intf.Cmt_format.cmt_annots with
            | Cmt_format.Interface sg ->
                add_exports g ~unit ~file:(sourcefile intf cmti) ~modpath:unit
                  sg
            | _ -> ()
        end
    | _ -> ());
    true
  with exn ->
    g.findings <-
      {
        L.file = path;
        line = 0;
        col = 0;
        rule = "cmt-error";
        message = "failed to read cmt: " ^ Printexc.to_string exn;
        chain = [];
      }
      :: g.findings;
    true

(* ------------------------------------------------------------------ *)
(* i1: transitive nondeterminism from sweep roots                      *)
(* ------------------------------------------------------------------ *)

let is_root roots fn =
  fn.shard_caller
  || List.exists
       (fun r -> fn.key = r || has_prefix ~prefix:(r ^ ".") fn.key)
       roots

(* Breadth-first from all roots at once; [parent] gives the shortest
   witness path back to some root.  One finding per primitive site in
   each reachable function. *)
let run_taint g roots =
  let parent : (string, (string * int) option) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  let defined = List.rev g.fn_order in
  List.iter
    (fun key ->
      let fn = Hashtbl.find g.fns key in
      if is_root roots fn && not (Hashtbl.mem parent key) then begin
        Hashtbl.replace parent key None;
        Queue.push key q
      end)
    defined;
  while not (Queue.is_empty q) do
    let key = Queue.pop q in
    let fn = Hashtbl.find g.fns key in
    List.iter
      (fun (callee, line) ->
        if Hashtbl.mem g.fns callee && not (Hashtbl.mem parent callee) then begin
          Hashtbl.replace parent callee (Some (key, line));
          Queue.push callee q
        end)
      (List.rev fn.calls)
  done;
  let rec witness key acc =
    match Hashtbl.find parent key with
    | None -> key :: acc
    | Some (pkey, _) -> witness pkey (key :: acc)
  in
  List.iter
    (fun key ->
      if Hashtbl.mem parent key then
        let fn = Hashtbl.find g.fns key in
        List.iter
          (fun (what, line) ->
            let chain =
              List.map
                (fun k ->
                  let f = Hashtbl.find g.fns k in
                  {
                    L.c_fn = f.key;
                    c_file = f.fi_file;
                    c_line = (if k = key then line else f.fi_line);
                  })
                (witness key [])
            in
            emit g fn "i1-trans-nondet" ~line ~chain
              (Printf.sprintf
                 "%s is reachable from a sweep entry point and uses %s; \
                  route through Flexile_util.Prng / Trace.now_s / \
                  Flexile_util.Tbl instead"
                 fn.key what))
          (List.rev fn.prims))
    defined

(* ------------------------------------------------------------------ *)
(* i3: transitive allocation freedom                                   *)
(* ------------------------------------------------------------------ *)

let run_noalloc g =
  let check_kernel root =
    let visited = Hashtbl.create 16 in
    let rec visit chain key =
      if not (Hashtbl.mem visited key) then begin
        Hashtbl.replace visited key ();
        let fn = Hashtbl.find g.fns key in
        if fn.alloc_ok && key <> root.key then
          (* trusted to allocate for a documented reason *)
          mark_alloc_ok_used g fn
        else begin
          let chain_here =
            chain @ [ { L.c_fn = fn.key; c_file = fn.fi_file; c_line = fn.fi_line } ]
          in
          List.iter
            (fun (what, line) ->
              emit g fn "i3-noalloc" ~line
                ~chain:chain_here
                (Printf.sprintf
                   "allocation (%s) inside [@lint.noalloc] kernel %s; hoist \
                    it to setup, or justify with [@lint.alloc_ok \"why\"]"
                   what root.key))
            (List.rev fn.allocs);
          List.iter
            (fun (p, line) ->
              emit g fn "i3-noalloc" ~line ~chain:chain_here
                (Printf.sprintf
                   "call through parameter '%s' inside [@lint.noalloc] \
                    kernel %s cannot be proven allocation-free"
                   p root.key))
            (List.rev fn.param_calls);
          (* dune's dev profile compiles with -opaque, so nothing is
             inlined across units and a float argument or result of such
             a call is boxed on every call *)
          List.iter
            (fun (callee, line) ->
              match Hashtbl.find_opt g.fns callee with
              | Some cf when cf.fi_file <> fn.fi_file && not cf.alloc_ok ->
                  emit g fn "i3-noalloc" ~line ~chain:chain_here
                    (Printf.sprintf
                       "call to %s from another compilation unit passes or \
                        returns a boxed float inside [@lint.noalloc] kernel \
                        %s (-opaque: no cross-unit inlining); keep the \
                        float arithmetic in this unit"
                       callee root.key)
              | _ -> ())
            (List.rev fn.float_calls);
          List.iter
            (fun (callee, line) ->
              if Hashtbl.mem g.fns callee then visit chain_here callee
              else if
                List.mem callee noalloc_whitelist
                || List.mem callee raise_family
                || List.mem callee allocators (* already reported as alloc *)
              then ()
              else
                emit g fn "i3-noalloc" ~line ~chain:chain_here
                  (Printf.sprintf
                     "call to %s inside [@lint.noalloc] kernel %s is neither \
                      analysed nor on the allocation-free whitelist"
                     callee root.key))
            (List.rev fn.calls)
        end
      end
    in
    visit [] root.key
  in
  List.iter
    (fun key ->
      let fn = Hashtbl.find g.fns key in
      if fn.noalloc then check_kernel fn)
    (List.rev g.fn_order)

(* ------------------------------------------------------------------ *)
(* u1: every export is used outside its own unit                       *)
(* ------------------------------------------------------------------ *)

let run_unused g =
  List.iter
    (fun x ->
      let units = Option.value ~default:[] (Hashtbl.find_opt g.refs x.x_key) in
      if not (List.exists (( <> ) x.x_unit) units) then
        emit_at g ~file:x.x_file ~allows:x.x_allows "u1-unused-export"
          ~line:x.x_line ~chain:[]
          (Printf.sprintf
             "%s is exported but no other unit uses it; delete it, drop it \
              from the interface, or keep a test-only oracle with \
              [@@lint.allow \"u1-unused-export\"] and a comment saying why"
             x.x_key))
    (List.rev g.exports)

(* ------------------------------------------------------------------ *)
(* u2: every knob reaches a second value                               *)
(* ------------------------------------------------------------------ *)

let knob_advice =
  "make it a constant in its module, or keep it with \
   [@lint.allow \"u2-single-value-knob\"] and a comment naming the test \
   that needs its second value"

let run_knobs g =
  List.iter
    (fun x ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem g.passed (x.x_key ^ " ?" ^ l)) then
            emit_at g ~file:x.x_file ~allows:x.x_allows "u2-single-value-knob"
              ~line:x.x_line ~chain:[]
              (Printf.sprintf
                 "%s ?%s: no caller outside test/ passes it, so it only ever \
                  takes its default; %s"
                 x.x_key l knob_advice))
        x.x_opts)
    (List.rev g.exports);
  List.iter
    (fun f ->
      if
        List.mem f.f_type g.defaulted
        && not (Hashtbl.mem g.set_fields (f.f_type ^ "." ^ f.f_name))
      then
        emit_at g ~file:f.f_file ~allows:f.f_allows "u2-single-value-knob"
          ~line:f.f_line ~chain:[]
          (Printf.sprintf
             "%s.%s: no record expression outside test/ sets it but its \
              default_* value, so it only ever takes one value; %s"
             f.f_type f.f_name knob_advice))
    (List.rev g.fields)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let analyze ?(roots = default_roots) ?(callers = []) cmt_paths =
  let g =
    {
      fns = Hashtbl.create 256;
      fn_order = [];
      ident_keys = Hashtbl.create 256;
      findings = [];
      n_suppressed = 0;
      used_allows = [];
      exports = [];
      refs = Hashtbl.create 1024;
      fields = [];
      defaulted = [];
      passed = Hashtbl.create 256;
      set_fields = Hashtbl.create 256;
    }
  in
  let load analysed n p = if load_cmt g ~analysed p then n + 1 else n in
  let n = List.fold_left (load true) 0 cmt_paths in
  let n = List.fold_left (load false) n callers in
  (* i2 findings were emitted during the walk *)
  run_taint g roots;
  run_noalloc g;
  run_unused g;
  run_knobs g;
  let by_pos a b =
    match compare a.L.file b.L.file with
    | 0 -> compare a.L.line b.L.line
    | c -> c
  in
  {
    L.files_checked = n;
    findings = List.sort by_pos (List.rev g.findings);
    suppressed = g.n_suppressed;
    declared_allows = [];
    used_allows = List.rev g.used_allows;
  }
