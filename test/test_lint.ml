(* flexile-lint engine tests: one positive (flagged) and one negative
   (clean) fixture per rule id, suppression via [@lint.allow] and
   floating [@@@lint.allow], zone gating, and the JSON summary shape. *)

module E = Flexile_lint.Lint_engine
module Json = Flexile_util.Json

(* Lint an inline fixture as if it lived at [file]. *)
let lint ?(file = "lib/fixture.ml") src = E.check_source ~file src

let rules_hit r = List.map (fun f -> f.E.rule) r.E.findings

let check_rules name expected r =
  Alcotest.(check (list string)) name expected (rules_hit r)

(* ------------------------------------------------------------------ *)
(* d1-nondet                                                           *)
(* ------------------------------------------------------------------ *)

let d1_positive () =
  check_rules "Random" [ "d1-nondet" ] (lint {|let f () = Random.int 5|});
  check_rules "gettimeofday" [ "d1-nondet" ]
    (lint {|let f () = Unix.gettimeofday ()|});
  check_rules "Sys.time" [ "d1-nondet" ] (lint {|let f () = Sys.time ()|});
  check_rules "Hashtbl.hash" [ "d1-nondet" ]
    (lint {|let f x = Hashtbl.hash x|});
  check_rules "random table" [ "d1-nondet" ]
    (lint {|let f () = Hashtbl.create ~random:true 16|});
  check_rules "Sys.getenv_opt" [ "d1-nondet" ]
    (lint {|let f () = Sys.getenv_opt "X"|})

let d1_negative () =
  check_rules "Prng is fine" []
    (lint {|let f rng = Flexile_util.Prng.int rng 5|});
  check_rules "trace clock is fine" []
    (lint {|let f () = Flexile_util.Trace.now_s ()|});
  check_rules "~random:false is fine" []
    (lint {|let f () = Hashtbl.create ~random:false 16|})

let d1_no_path_allow () =
  (* a path exempts nothing by itself: a raw Random use in prng.ml, or
     a printf in the figure renderer without its file's floating
     allow, is a finding *)
  check_rules "prng.ml" [ "d1-nondet" ]
    (lint ~file:"lib/util/prng.ml" {|let f () = Random.int 5|});
  check_rules "figures.ml without its allow" [ "h1-io" ]
    (lint ~file:"lib/core/figures.ml" {|let f x = Printf.printf "%d" x|})

let d1_zone_gate () =
  (* d1 only applies to lib/: the bench driver may read the wall clock *)
  check_rules "bench exempt" []
    (lint ~file:"bench/main.ml" {|let f () = Unix.gettimeofday ()|})

(* ------------------------------------------------------------------ *)
(* d2-float-eq                                                         *)
(* ------------------------------------------------------------------ *)

let d2_positive () =
  check_rules "float literal =" [ "d2-float-eq" ] (lint {|let f x = x = 0.|});
  check_rules "float arith <>" [ "d2-float-eq" ]
    (lint {|let f a b = a <> b *. 2.|});
  check_rules "compare on floats" [ "d2-float-eq" ]
    (lint {|let f a b = compare (a +. 1.) b|});
  check_rules "constraint operand" [ "d2-float-eq" ]
    (lint {|let f x y = (x : float) = y|});
  check_rules "infinity" [ "d2-float-eq" ] (lint {|let f x = x = infinity|})

let d2_negative () =
  check_rules "int = is fine" [] (lint {|let f x = x = 0|});
  check_rules "string = is fine" [] (lint {|let f s = s = "x"|});
  check_rules "Float_cmp is the fix" []
    (lint {|let f x = Flexile_util.Float_cmp.eq x 0.|});
  check_rules "Float.is_nan result is not a float" []
    (lint {|let f x y = Float.is_nan x = Float.is_nan y|})

(* ------------------------------------------------------------------ *)
(* d3-tbl-order                                                        *)
(* ------------------------------------------------------------------ *)

let d3_positive () =
  check_rules "fold" [ "d3-tbl-order" ]
    (lint {|let f h = Hashtbl.fold (fun k _ acc -> k :: acc) h []|});
  check_rules "iter" [ "d3-tbl-order" ]
    (lint {|let f g h = Hashtbl.iter g h|})

let d3_negative () =
  check_rules "sorted traversal is the fix" []
    (lint {|let f h = List.map fst (Flexile_util.Tbl.sorted_bindings h)|});
  check_rules "find/replace are order-free" []
    (lint {|let f h = Hashtbl.replace h 1 2; Hashtbl.find_opt h 1|})

(* ------------------------------------------------------------------ *)
(* c1-concurrency                                                      *)
(* ------------------------------------------------------------------ *)

let c1_positive () =
  check_rules "spawn" [ "c1-concurrency" ]
    (lint {|let f () = Domain.spawn (fun () -> ())|});
  check_rules "mutex" [ "c1-concurrency" ]
    (lint {|let f () = Mutex.create ()|});
  check_rules "atomic" [ "c1-concurrency" ]
    (lint {|let f () = Atomic.make 0|});
  (* active beyond lib/: the bench driver must use Parallel too *)
  check_rules "bench also banned" [ "c1-concurrency" ]
    (lint ~file:"bench/main.ml" {|let f () = Domain.spawn (fun () -> ())|})

let c1_negative () =
  check_rules "Parallel API is the fix" []
    (lint {|let f xs = Flexile_util.Parallel.map ~jobs:4 xs|});
  (* the pool implementation itself carries a floating allow *)
  let r =
    lint ~file:"lib/util/parallel.ml"
      {|[@@@lint.allow "c1-concurrency"]
let f () = Mutex.create ()|}
  in
  check_rules "pool module exempt" [] r;
  Alcotest.(check int) "via its floating allow" 1 r.E.suppressed

(* ------------------------------------------------------------------ *)
(* c2-global-mut                                                       *)
(* ------------------------------------------------------------------ *)

let c2_positive () =
  check_rules "toplevel ref" [ "c2-global-mut" ] (lint {|let n = ref 0|});
  check_rules "toplevel table" [ "c2-global-mut" ]
    (lint {|let cache = Hashtbl.create 16|});
  check_rules "nested module counts" [ "c2-global-mut" ]
    (lint {|module M = struct let state = ref [] end|})

let c2_negative () =
  check_rules "local ref is fine" []
    (lint {|let f () = let r = ref 0 in incr r; !r|});
  check_rules "immutable toplevel is fine" [] (lint {|let n = 42|})

(* ------------------------------------------------------------------ *)
(* h1-io                                                               *)
(* ------------------------------------------------------------------ *)

let h1_positive () =
  check_rules "printf" [ "h1-io" ] (lint {|let f () = Printf.printf "hi"|});
  check_rules "print_endline" [ "h1-io" ]
    (lint {|let f () = print_endline "hi"|});
  check_rules "exit" [ "h1-io" ] (lint {|let f () = exit 1|});
  check_rules "Obj.magic" [ "h1-io" ] (lint {|let f x = Obj.magic x|})

let h1_negative () =
  check_rules "sprintf is fine" []
    (lint {|let f n = Printf.sprintf "%d" n|});
  check_rules "bin may print" []
    (lint ~file:"bin/flexile_cli.ml" {|let f () = print_endline "usage"|})

(* ------------------------------------------------------------------ *)
(* Suppression                                                         *)
(* ------------------------------------------------------------------ *)

let suppress_site () =
  let r = lint {|let f x = (x = 0.) [@lint.allow "d2-float-eq"]|} in
  check_rules "suppressed" [] r;
  Alcotest.(check int) "counted" 1 r.E.suppressed

let suppress_binding () =
  (* [@@...] after a toplevel let lands on the value binding *)
  let r = lint {|let f x = x = 0. [@@lint.allow "d2-float-eq"]|} in
  check_rules "binding-level suppression" [] r;
  Alcotest.(check int) "counted" 1 r.E.suppressed

let suppress_wrong_id () =
  let r = lint {|let f x = (x = 0.) [@lint.allow "d3-tbl-order"]|} in
  check_rules "wrong id does not silence" [ "d2-float-eq" ] r;
  Alcotest.(check int) "nothing suppressed" 0 r.E.suppressed

let suppress_multi () =
  let r =
    lint
      {|let f x = (Printf.printf "%f" x; x = 0.) [@lint.allow "d2-float-eq, h1-io"]|}
  in
  check_rules "comma list silences both" [] r;
  Alcotest.(check int) "both counted" 2 r.E.suppressed

let suppress_floating () =
  (* a floating allow covers the rest of its own structure: not the
     items above it, not the code after a nested structure it sits in,
     and not another file *)
  let r =
    lint
      {|let before () = Random.int 5
module M = struct
  [@@@lint.allow "d1-nondet"]
  let inner () = Random.int 5
end
let between () = Random.int 5
[@@@lint.allow "d1-nondet"]
let after () = Random.int 5
module N = struct let nested () = Random.bool () end|}
  in
  Alcotest.(check (list int)) "lines still flagged" [ 1; 6 ]
    (List.map (fun f -> f.E.line) r.E.findings);
  Alcotest.(check int) "counted as suppressed" 3 r.E.suppressed;
  let sites l = List.map (fun a -> (a.E.a_line, a.E.a_id)) l in
  Alcotest.(check (list (pair int string))) "declared"
    [ (3, "d1-nondet"); (7, "d1-nondet") ]
    (sites r.E.declared_allows);
  Alcotest.(check (list (pair int string))) "both used"
    [ (3, "d1-nondet"); (7, "d1-nondet") ]
    (sites r.E.used_allows);
  let other = lint ~file:"lib/other.ml" {|let g () = Random.int 5|} in
  check_rules "another file is not covered" [ "d1-nondet" ] other

(* ------------------------------------------------------------------ *)
(* Interfaces, parse errors, merge                                     *)
(* ------------------------------------------------------------------ *)

let intf_parses () =
  let r = lint ~file:"lib/fixture.mli" {|val f : float -> bool|} in
  check_rules "mli clean" [] r;
  Alcotest.(check int) "counted as a file" 1 r.E.files_checked

let parse_error_reported () =
  let r = lint {|let f = (|} in
  Alcotest.(check (list string)) "parse error" [ "parse-error" ] (rules_hit r)

let merge_reports () =
  let a = lint {|let f x = x = 0.|} and b = lint {|let n = ref 0|} in
  let m = E.merge [ a; b ] in
  Alcotest.(check int) "files" 2 m.E.files_checked;
  Alcotest.(check int) "findings" 2 (List.length m.E.findings)

(* ------------------------------------------------------------------ *)
(* JSON summary shape                                                  *)
(* ------------------------------------------------------------------ *)

let json_shape () =
  let r =
    E.merge [ lint {|let f x = x = 0.|}; lint {|let g () = Random.bool ()|} ]
  in
  let j =
    match Json.parse (Json.encode (E.json_summary r)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "summary does not parse: %s" e
  in
  let str_member k =
    match Option.bind (Json.member k j) Json.to_string with
    | Some s -> s
    | None -> Alcotest.failf "missing string member %s" k
  in
  let int_member k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some n -> n
    | None -> Alcotest.failf "missing int member %s" k
  in
  Alcotest.(check string) "schema" "flexile-lint-summary" (str_member "schema");
  Alcotest.(check int) "version" 3 (int_member "version");
  Alcotest.(check int) "files" 2 (int_member "files_checked");
  Alcotest.(check int) "total" 2 (int_member "total_findings");
  (* per-rule counts cover every rule id *)
  let counts =
    match Json.member "counts" j with
    | Some (Json.Object o) -> o
    | _ -> Alcotest.fail "counts is not an object"
  in
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id counts) then
        Alcotest.failf "counts missing rule %s" id)
    E.rules;
  Alcotest.(check (option int))
    "d2 count" (Some 1)
    (Option.bind (List.assoc_opt "d2-float-eq" counts) Json.to_int);
  (* findings carry file/line/rule/message *)
  let fs =
    match Option.bind (Json.member "findings" j) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "findings is not a list"
  in
  Alcotest.(check int) "findings array" 2 (List.length fs);
  List.iter
    (fun f ->
      List.iter
        (fun k ->
          if Json.member k f = None then Alcotest.failf "finding missing %s" k)
        [ "file"; "line"; "col"; "rule"; "message" ])
    fs

let rules_documented () =
  Alcotest.(check int) "twelve rules" 12 (List.length E.rules);
  List.iter
    (fun id ->
      if not (List.mem_assoc id E.rules) then Alcotest.failf "missing %s" id)
    [
      "d1-nondet"; "d2-float-eq"; "d3-tbl-order"; "c1-concurrency";
      "c2-global-mut"; "h1-io"; "i1-trans-nondet"; "i2-shard-capture";
      "i3-noalloc"; "u1-unused-export"; "u2-single-value-knob";
      "s1-stale-suppress";
    ]

let render () =
  let r = lint {|let f x = x = 0.|} in
  match r.E.findings with
  | [ f ] ->
      let s = E.render_finding f in
      Alcotest.(check bool) "file:line: [rule]" true
        (String.length s > 0
        && String.sub s 0 (String.length "lib/fixture.ml:1: [d2-float-eq]")
           = "lib/fixture.ml:1: [d2-float-eq]")
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)


(* ------------------------------------------------------------------ *)
(* s1 stale suppressions                                               *)
(* ------------------------------------------------------------------ *)

let stale_unknown_id () =
  (* a typo'd rule id is reported even by a syntactic-only run *)
  let r = lint {|let f () = () [@lint.allow "d1-nondte"]|} in
  let st = E.stale_suppressions ~deep:false r in
  Alcotest.(check int) "one stale" 1 (List.length st);
  match st with
  | [ s ] -> Alcotest.(check string) "id" "d1-nondte" s.E.st_id
  | _ -> Alcotest.fail "unreachable"

let stale_unused_attr () =
  let r = lint {|let f () = () [@lint.allow "d1-nondet"]|} in
  (* syntactic-only runs do not adjudicate: the deep stage might still
     need the attribute as a taint-seed waiver *)
  Alcotest.(check int) "not judged shallow" 0
    (List.length (E.stale_suppressions ~deep:false r));
  (* a full run knows both stages ran, so unused means stale *)
  match E.stale_suppressions ~deep:true r with
  | [ st ] ->
      let f = E.finding_of_stale st in
      Alcotest.(check string) "as finding" "s1-stale-suppress" f.E.rule
  | st -> Alcotest.failf "expected 1 stale attr, got %d" (List.length st)

let stale_used_attr_clean () =
  let r = lint {|let f () = Random.int 5 [@lint.allow "d1-nondet"]|} in
  Alcotest.(check int) "suppressed" 1 r.E.suppressed;
  Alcotest.(check int) "not stale" 0 (List.length (E.stale_suppressions ~deep:true r))

let stale_zone_exempt () =
  (* the rule is inactive in test/, so the attribute cannot match and
     must not be called stale *)
  let r = lint ~file:"test/fixture.ml" {|let f () = () [@lint.allow "d1-nondet"]|} in
  Alcotest.(check int) "exempt" 0 (List.length (E.stale_suppressions ~deep:true r))

let stale_floating_allow () =
  (* a floating allow with no hit is stale like any other site, and
     a finding under --strict-suppressions; one with a hit is not *)
  let r = lint {|[@@@lint.allow "h1-io"]
let f () = 1|} in
  (match E.stale_suppressions ~deep:true r with
  | [ st ] ->
      let f = E.finding_of_stale st in
      Alcotest.(check (pair string int)) "strict finding at the attribute"
        ("s1-stale-suppress", 1) (f.E.rule, f.E.line)
  | st -> Alcotest.failf "expected 1 stale allow, got %d" (List.length st));
  let r = lint {|[@@@lint.allow "h1-io"]
let f () = print_endline "x"|} in
  Alcotest.(check int) "used, not stale" 0
    (List.length (E.stale_suppressions ~deep:true r))

let () =
  Alcotest.run "flexile_lint"
    [
      ( "d1-nondet",
        [
          Alcotest.test_case "positive" `Quick d1_positive;
          Alcotest.test_case "negative" `Quick d1_negative;
          Alcotest.test_case "no path allowlist" `Quick d1_no_path_allow;
          Alcotest.test_case "zone gating" `Quick d1_zone_gate;
        ] );
      ( "d2-float-eq",
        [
          Alcotest.test_case "positive" `Quick d2_positive;
          Alcotest.test_case "negative" `Quick d2_negative;
        ] );
      ( "d3-tbl-order",
        [
          Alcotest.test_case "positive" `Quick d3_positive;
          Alcotest.test_case "negative" `Quick d3_negative;
        ] );
      ( "c1-concurrency",
        [
          Alcotest.test_case "positive" `Quick c1_positive;
          Alcotest.test_case "negative" `Quick c1_negative;
        ] );
      ( "c2-global-mut",
        [
          Alcotest.test_case "positive" `Quick c2_positive;
          Alcotest.test_case "negative" `Quick c2_negative;
        ] );
      ( "h1-io",
        [
          Alcotest.test_case "positive" `Quick h1_positive;
          Alcotest.test_case "negative" `Quick h1_negative;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "site attribute" `Quick suppress_site;
          Alcotest.test_case "binding attribute" `Quick suppress_binding;
          Alcotest.test_case "wrong id" `Quick suppress_wrong_id;
          Alcotest.test_case "multiple ids" `Quick suppress_multi;
          Alcotest.test_case "floating allow" `Quick suppress_floating;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "mli parses" `Quick intf_parses;
          Alcotest.test_case "parse error" `Quick parse_error_reported;
          Alcotest.test_case "merge" `Quick merge_reports;
          Alcotest.test_case "json summary" `Quick json_shape;
          Alcotest.test_case "rule table" `Quick rules_documented;
          Alcotest.test_case "stale unknown id" `Quick stale_unknown_id;
          Alcotest.test_case "stale unused attr" `Quick stale_unused_attr;
          Alcotest.test_case "stale used attr clean" `Quick
            stale_used_attr_clean;
          Alcotest.test_case "stale zone exempt" `Quick stale_zone_exempt;
          Alcotest.test_case "stale floating allow" `Quick
            stale_floating_allow;
          Alcotest.test_case "rendering" `Quick render;
        ] );
    ]
