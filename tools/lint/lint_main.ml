(* flexile-lint CLI: walk the given directories (default: lib bin bench
   test), lint every .ml/.mli with the syntactic stage, print one
   diagnostic per finding and optionally a JSON summary (schema v3),
   exit 1 on any unsuppressed hit and 2 on a malformed command line.

   --deep additionally runs the typedtree stage over the .cmt/.cmti
   artifacts dune left under _build/default for every lib/-zone root,
   and reads the .cmt of every caller directory (bin, bench, flexbench,
   examples) for the references u1 and the arguments u2 count (so run
   it after `dune build @check`); --strict-suppressions turns stale
   [@lint.allow] attributes into s1 findings. *)

module Lint_engine = Flexile_lint.Lint_engine
module Deep_engine = Flexile_lint.Deep_engine

let usage =
  "flexile-lint [--deep] [--strict-suppressions] [--json FILE] [DIR|FILE]..."

(* A malformed command line exits 2, before any file is read. *)
let usage_error msg =
  Printf.eprintf "flexile-lint: %s\nusage: %s\n" msg usage;
  exit 2

let has_suffix s suf =
  let ls = String.length s and lu = String.length suf in
  ls >= lu && String.sub s (ls - lu) lu = suf

let rec collect ~suffixes acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc entry ->
           if entry = "_build" || entry = ".git" then acc
           else collect ~suffixes acc (Filename.concat path entry))
         acc
  else if List.exists (has_suffix path) suffixes then path :: acc
  else acc

(* Directories whose code counts as a caller of lib/ for u1 and u2.
   test/ is not one: an export only a test calls, or a knob only a test
   sets, has not earned its place. *)
let caller_roots = [ "bin"; "bench"; "flexbench"; "examples" ]

(* cmts for root "lib" live under _build/default/lib/**/.<lib>.objs/byte/ *)
let cmts_for_root root =
  let dir = Filename.concat "_build/default" root in
  if Sys.file_exists dir then
    collect ~suffixes:[ ".cmt" ] [] dir |> List.sort compare
  else []

let () =
  let json_out = ref None in
  let deep = ref false in
  let strict = ref false in
  let roots = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: f :: rest when f <> "" && f.[0] <> '-' ->
        json_out := Some f;
        parse_args rest
    | "--json" :: _ -> usage_error "option --json needs a FILE"
    | "--deep" :: rest ->
        deep := true;
        parse_args rest
    | "--strict-suppressions" :: rest ->
        strict := true;
        parse_args rest
    | a :: _ when a <> "" && a.[0] = '-' ->
        usage_error ("unknown option " ^ a)
    | a :: rest ->
        roots := a :: !roots;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let roots =
    match List.rev !roots with
    | [] -> [ "lib"; "bin"; "bench"; "test" ]
    | rs -> rs
  in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  List.iter (Printf.eprintf "flexile-lint: no such path: %s\n") missing;
  let files =
    List.filter (fun r -> Sys.file_exists r) roots
    |> List.fold_left (collect ~suffixes:[ ".ml"; ".mli" ]) []
    |> List.sort compare
  in
  let syntactic =
    Lint_engine.merge (List.map Lint_engine.check_file files)
  in
  let deep_report =
    if not !deep then None
    else begin
      (* the deep stage only reasons about lib/ invariants; other zones
         hold fixtures and drivers whose cmts would add noise *)
      let lib_roots =
        List.filter
          (fun r -> Lint_engine.zone_of_file (r ^ "/x.ml") = Lint_engine.Lib)
          roots
      in
      let cmts = List.concat_map cmts_for_root lib_roots in
      if cmts = [] then
        Printf.eprintf
          "flexile-lint: --deep found no .cmt artifacts under \
           _build/default (run `dune build @check` first)\n";
      let callers = List.concat_map cmts_for_root caller_roots in
      Some (Deep_engine.analyze ~callers cmts)
    end
  in
  let report =
    match deep_report with
    | None -> syntactic
    | Some d -> Lint_engine.merge [ syntactic; d ]
  in
  let stale = Lint_engine.stale_suppressions ~deep:!deep report in
  let report =
    if !strict then
      {
        report with
        Lint_engine.findings =
          report.Lint_engine.findings
          @ List.map Lint_engine.finding_of_stale stale;
      }
    else report
  in
  List.iter
    (fun f -> print_endline (Lint_engine.render_finding f))
    report.Lint_engine.findings;
  if not !strict then
    List.iter
      (fun s ->
        Printf.printf "warning: %s\n"
          (Lint_engine.render_finding (Lint_engine.finding_of_stale s)))
      stale;
  (match !json_out with
  | None -> ()
  | Some path ->
      Flexile_util.Json.write_file path (Lint_engine.json_summary ~stale report));
  let n = List.length report.Lint_engine.findings in
  Printf.printf
    "flexile-lint: %d file(s)%s, %d finding(s), %d suppressed, %d stale \
     suppression(s)%s\n"
    report.Lint_engine.files_checked
    (if !deep then " (deep)" else "")
    n report.Lint_engine.suppressed (List.length stale)
    (if stale <> [] && not !strict then " [warning]" else "");
  if n > 0 || missing <> [] then exit 1
