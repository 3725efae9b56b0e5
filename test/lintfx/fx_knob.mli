(* Seeded u2 cases: whether a caller passes an optional argument, or a
   record expression other than the default sets a field, decides the
   finding.  Fx_entry is that caller; test_lint_deep.ml, in the test
   zone, is not analysed and so does not count. *)

(* positive: nothing passes ?scale *)
val never : ?scale:int -> int -> int

(* positive: only the test driver passes ?scale *)
val test_passed : ?scale:int -> int -> int

(* positive: Fx_entry uses it only as a first-class value, which
   leaves ?scale at its default *)
val first_class : ?scale:int -> int -> int

(* negative: Fx_entry forwards its own ?scale *)
val forwarded : ?scale:int -> int -> int

(* suppressed: nothing passes ?scale, kept with an allow *)
val kept : ?scale:int -> int -> int [@@lint.allow "u2-single-value-knob"]

(* stale: Fx_entry passes ?scale, so the allow silences nothing *)
val passed_allowed : ?scale:int -> int -> int
  [@@lint.allow "u2-single-value-knob"]

type opts = {
  overridden : int;  (* negative: Fx_entry's [with] sets it *)
  defaulted : int;  (* positive: only default_opts sets it *)
}

val default_opts : opts
