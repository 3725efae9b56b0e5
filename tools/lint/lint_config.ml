(* Per-file suppressions for flexile-lint.

   Each entry allows one rule in the files whose normalised path ends
   with one of the listed suffixes, with a one-line justification that
   is echoed into the JSON summary.  Site-level exceptions should
   prefer a [@lint.allow "rule-id"] attribute next to the offending
   expression; this table is for files whose *purpose* is to be the
   exception (the domain pool is allowed to spawn domains, the figure
   renderer is allowed to print).

   Entries are themselves checked: `flexile-lint --strict-suppressions`
   fails when an (entry, file) pair no longer matches any finding, so
   allowances cannot outlive the code they were written for.  (A d1
   entry for prng.ml/trace.ml and a speculative c2 entry for sparse.ml
   used to live here; both had rotted — the PRNG is a pure seeded
   splitmix and sparse.ml keeps all of its mutable state inside Svec /
   Basis values — and were removed when the staleness check landed.) *)

type entry = {
  rule : string;
  files : string list;  (* path suffixes, '/'-separated *)
  why : string;
}

let entries =
  [
    {
      rule = "c1-concurrency";
      files = [ "lib/util/parallel.ml"; "lib/util/trace.ml" ];
      why =
        "the domain pool and the per-domain trace state are the only \
         modules allowed to own concurrency primitives (DESIGN.md \
         sections 6-7)";
    };
    {
      rule = "c2-global-mut";
      files = [ "lib/util/parallel.ml"; "lib/util/trace.ml" ];
      why =
        "mutex-guarded process-global pool and metric registry; shared by \
         design and touched only at handle creation / aggregation time";
    };
    {
      rule = "h1-io";
      files = [ "lib/core/figures.ml" ];
      why =
        "human-readable report renderer whose whole job is terminal \
         output, invoked only from the CLI / bench driver";
    };
  ]

let norm file =
  String.map (fun c -> if c = '\\' then '/' else c) file

let suffix_matches ~file suffix =
  let file = norm file in
  let lf = String.length file and ls = String.length suffix in
  lf >= ls
  && String.sub file (lf - ls) ls = suffix
  && (lf = ls || file.[lf - ls - 1] = '/')

let find ~rule ~file =
  List.find_opt
    (fun e -> e.rule = rule && List.exists (suffix_matches ~file) e.files)
    entries

(* Like {!find} but also returns the file suffix that matched, so the
   caller can record which (rule, suffix) pair actually earned its
   keep — the unit the staleness check operates on. *)
let find_with_suffix ~rule ~file =
  List.find_map
    (fun e ->
      if e.rule <> rule then None
      else
        match List.find_opt (suffix_matches ~file) e.files with
        | Some suffix -> Some (e, suffix)
        | None -> None)
    entries

let allowed ~rule ~file = find ~rule ~file <> None

(* Every (rule, file-suffix) pair declared above, for staleness
   accounting in the driver. *)
let declared_pairs =
  List.concat_map (fun e -> List.map (fun f -> (e.rule, f)) e.files) entries
