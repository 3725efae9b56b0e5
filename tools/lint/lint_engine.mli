(** AST-level invariant checker for the Flexile repository.

    Parses [.ml] / [.mli] sources into the compiler's Parsetree and
    walks them with an [Ast_iterator], enforcing the repo-specific
    determinism / concurrency / hygiene rules documented in DESIGN.md
    section 9.  A finding is suppressed by a [[\@lint.allow "rule-id"]]
    attribute (ids separated by spaces or commas) on an enclosing
    expression, binding or [val], or by a floating
    [[\@\@\@lint.allow "rule-id"]] that covers the rest of its
    structure.

    This module also owns the finding/report vocabulary shared with the
    typedtree-based deep stage ({!Deep_engine}, DESIGN.md section 14),
    plus the stale-suppression pass run by the driver over the merged
    report. *)

type chain_elt = { c_fn : string; c_file : string; c_line : int }
(** One hop of an interprocedural call-chain witness. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
  chain : chain_elt list;  (** [] for syntactic findings *)
}

type allow_site = { a_file : string; a_line : int; a_id : string }
(** One rule id declared by a [[\@lint.allow]] (floating or not) /
    [[\@lint.alloc_ok]] attribute at a specific source position. *)

type report = {
  files_checked : int;
  findings : finding list;  (** source order within a file *)
  suppressed : int;  (** silenced by a [\@lint.allow] attribute *)
  declared_allows : allow_site list;  (** every suppression site seen *)
  used_allows : allow_site list;  (** sites that silenced >= 1 finding *)
}

val empty_report : report

val rules : (string * string) list
(** [(rule-id, one-line description)] for every enforced rule, both
    stages plus the driver's staleness rule. *)

val syntactic_rules : (string * string) list
(** The subset enforced by this module. *)

val deep_rules : (string * string) list
(** The subset enforced by {!Deep_engine} (i1/i2/i3/u1/u2). *)

type zone = Lib | Bin | Bench | Test | Other

val zone_of_file : string -> zone
val rule_active : string -> zone -> bool

val allow_ids_of_attrs : Parsetree.attributes -> string list
(** Rule ids named by [[\@lint.allow]] attributes (plus the pseudo-id
    ["alloc-ok"] for [[\@lint.alloc_ok]]). *)

val allow_sites_of_attrs : Parsetree.attributes -> (string * int) list
(** Like {!allow_ids_of_attrs} but each id is paired with the line of
    the attribute that declared it, for used-suppression accounting. *)

val check_source : file:string -> string -> report
(** Lint one compilation unit given as a string.  [file] decides both
    the parser ([.mli] -> interface) and which rules apply (zone:
    [lib/], [bin/], [bench/], [test/]). *)

val check_file : string -> report
(** [check_source] over the contents of [path]. *)

val merge : report list -> report

(** {1 Stale suppressions} *)

type stale = {
  st_file : string;
  st_line : int;  (** of the attribute *)
  st_id : string;
  st_detail : string;
}

val stale_suppressions : deep:bool -> report -> stale list
(** Declared-but-unused suppressions in [report].  Full adjudication
    requires [deep:true] (both stages ran, so an unused suppression is
    really unused); a syntactic-only run cannot tell whether the deep
    stage still needs an attribute and therefore only reports unknown
    rule ids (typo catcher).  Attributes in zones where their rule is
    inactive are exempt either way. *)

val finding_of_stale : stale -> finding
(** Render a stale suppression as an [s1-stale-suppress] finding, for
    [--strict-suppressions] mode. *)

val render_finding : finding -> string
(** ["file:line: [rule-id] message"], plus indented call-chain lines
    for deep findings. *)

val json_summary : ?stale:stale list -> report -> Flexile_util.Json.t
(** Machine-readable summary, schema [flexile-lint-summary] version 3:
    per-rule counts over the full vocabulary, findings with optional
    ["chain"] witnesses, suppression totals, and the
    ["stale_suppressions"] array. *)
