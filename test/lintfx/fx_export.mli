(* Seeded u1 cases: whether another analysed unit uses a val decides
   its finding.  Fx_entry is that other unit; test_lint_deep.ml, in
   the test zone, is not analysed and so does not count. *)

(* positive: nothing calls it *)
val uncalled : int -> int

(* positive: only the test driver calls it *)
val test_only : int -> int

(* negative: a non-function value that Fx_entry reads *)
val table : int list

(* suppressed: uncalled, kept as a test oracle *)
val oracle : int -> int [@@lint.allow "u1-unused-export"]

(* stale: Fx_entry calls it, so the allow silences nothing *)
val called_allowed : int -> int [@@lint.allow "u1-unused-export"]
