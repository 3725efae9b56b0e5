(* Deep lint stage over the seeded-violation fixtures in test/lintfx:
   every rule family must fire with the right call-chain witness, and
   the negative twins must stay clean. *)

module L = Flexile_lint.Lint_engine
module D = Flexile_lint.Deep_engine

let has_suffix s suf =
  let ls = String.length s and lu = String.length suf in
  ls >= lu && String.sub s (ls - lu) lu = suf

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let rec collect acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left (fun acc e -> collect acc (Filename.concat path e)) acc
  else if has_suffix path ".cmt" then path :: acc
  else acc

(* Tests run inside _build/default/test; the fixture cmts sit in the
   lintfx library's .objs directory next to us.  Probe a few layouts so
   a dune-version bump does not silently empty the suite. *)
let fixture_cmts () =
  let candidates =
    [
      "lintfx/.flexile_lintfx.objs/byte";
      "test/lintfx/.flexile_lintfx.objs/byte";
      "_build/default/test/lintfx/.flexile_lintfx.objs/byte";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some dir -> List.sort compare (collect [] dir)
  | None -> Alcotest.fail "fixture cmts not found; was flexile_lintfx built?"

let report =
  lazy (D.analyze ~roots:[ "Flexile_lintfx.Fx_entry" ] (fixture_cmts ()))

let findings rule =
  List.filter (fun f -> f.L.rule = rule) (Lazy.force report).L.findings

let chain_fns f = List.map (fun c -> c.L.c_fn) f.L.chain

let find_with_chain rule fns =
  List.find_opt (fun f -> chain_fns f = fns) (findings rule)

(* ---- i1 ---- *)

let i1_two_hop_chain () =
  let expected =
    [
      "Flexile_lintfx.Fx_entry.drive";
      "Flexile_lintfx.Fx_mid.pick";
      "Flexile_lintfx.Fx_leaf.noise";
    ]
  in
  match find_with_chain "i1-trans-nondet" expected with
  | None ->
      Alcotest.failf "no i1 finding with chain %s"
        (String.concat " -> " expected)
  | Some f ->
      Alcotest.(check bool) "points at fx_leaf.ml" true
        (has_suffix f.L.file "lintfx/fx_leaf.ml");
      Alcotest.(check bool) "names the RNG" true
        (contains f.L.message "Random")

let i1_one_hop_tbl () =
  let expected =
    [ "Flexile_lintfx.Fx_entry.scan_shared"; "Flexile_lintfx.Fx_mid.tbl_scan" ]
  in
  match find_with_chain "i1-trans-nondet" expected with
  | None ->
      Alcotest.failf "no i1 finding with chain %s"
        (String.concat " -> " expected)
  | Some f ->
      Alcotest.(check bool) "points at fx_mid.ml" true
        (has_suffix f.L.file "lintfx/fx_mid.ml")

let i1_exact_set () =
  (* exactly the two seeded chains: the deterministic path
     (drive/steady/calm/pure) and the unreachable clock stay clean *)
  Alcotest.(check int) "i1 count" 2 (List.length (findings "i1-trans-nondet"));
  List.iter
    (fun f ->
      List.iter
        (fun fn ->
          Alcotest.(check bool) ("chain avoids " ^ fn) false
            (List.exists
               (fun c ->
                 c.L.c_fn = "Flexile_lintfx.Fx_leaf." ^ fn
                 || c.L.c_fn = "Flexile_lintfx.Fx_mid." ^ fn
                 || c.L.c_fn = "Flexile_lintfx.Fx_entry." ^ fn)
               f.L.chain))
        [ "clock"; "steady"; "calm"; "pure" ])
    (findings "i1-trans-nondet")

(* ---- i2 ---- *)

let caller_of f =
  match f.L.chain with c :: _ -> c.L.c_fn | [] -> "?"

let i2_positives () =
  let fs = findings "i2-shard-capture" in
  Alcotest.(check int) "i2 count" 3 (List.length fs);
  List.iter
    (fun caller ->
      Alcotest.(check bool) ("flags " ^ caller) true
        (List.exists
           (fun f -> caller_of f = "Flexile_lintfx.Fx_shard." ^ caller)
           fs))
    [ "total_races"; "tally_races"; "per_slot_writes" ];
  (* each witness names the captured state that is written *)
  List.iter
    (fun (caller, var) ->
      let f =
        List.find
          (fun f -> caller_of f = "Flexile_lintfx.Fx_shard." ^ caller)
          fs
      in
      Alcotest.(check bool)
        (caller ^ " names '" ^ var ^ "'")
        true
        (contains f.L.message ("'" ^ var ^ "'")))
    [ ("total_races", "total"); ("tally_races", "seen");
      ("per_slot_writes", "out") ]

let i2_negatives () =
  List.iter
    (fun caller ->
      Alcotest.(check bool) (caller ^ " stays clean") false
        (List.exists
           (fun f -> caller_of f = "Flexile_lintfx.Fx_shard." ^ caller)
           (findings "i2-shard-capture")))
    [ "readonly_ok"; "dls_ok"; "suppressed_races" ]

let i2_suppression_used () =
  let r = Lazy.force report in
  Alcotest.(check bool) "suppressed > 0" true (r.L.suppressed > 0);
  Alcotest.(check bool) "allow site recorded used" true
    (List.exists
       (fun s ->
         s.L.a_id = "i2-shard-capture" && has_suffix s.L.a_file "fx_shard.ml")
       r.L.used_allows)

(* ---- i3 ---- *)

let i3_direct_tuple () =
  match
    find_with_chain "i3-noalloc" [ "Flexile_lintfx.Fx_kernel.bad_pair" ]
  with
  | None -> Alcotest.fail "no i3 finding inside bad_pair"
  | Some f ->
      Alcotest.(check bool) "message names the tuple" true
        (contains f.L.message "tuple")

let i3_transitive_chain () =
  let expected =
    [ "Flexile_lintfx.Fx_kernel.bad_transitive"; "Flexile_lintfx.Fx_kernel.leaky" ]
  in
  match find_with_chain "i3-noalloc" expected with
  | None ->
      Alcotest.failf "no i3 finding with chain %s"
        (String.concat " -> " expected)
  | Some f ->
      Alcotest.(check bool) "blames Array.make" true
        (contains f.L.message "Array.make")

let i3_closure () =
  Alcotest.(check bool) "bad_closure flagged" true
    (List.exists
       (fun f ->
         chain_fns f = [ "Flexile_lintfx.Fx_kernel.bad_closure" ]
         && f.L.rule = "i3-noalloc")
       (findings "i3-noalloc"))

let i3_cross_unit_float () =
  match
    find_with_chain "i3-noalloc"
      [ "Flexile_lintfx.Fx_kernel.bad_cross_unit_float" ]
  with
  | None -> Alcotest.fail "no i3 finding inside bad_cross_unit_float"
  | Some f ->
      Alcotest.(check bool) "names the callee" true
        (contains f.L.message "Fx_leaf.halve");
      Alcotest.(check bool) "says why" true (contains f.L.message "boxed float")

let i3_negatives () =
  List.iter
    (fun fn ->
      Alcotest.(check bool) (fn ^ " stays clean") false
        (List.exists
           (fun f ->
             List.mem ("Flexile_lintfx.Fx_kernel." ^ fn) (chain_fns f))
           (findings "i3-noalloc")))
    [ "saxpy"; "ok_growth"; "ok_local_ref"; "ok_cross_unit_int" ]

let i3_alloc_ok_used () =
  let r = Lazy.force report in
  Alcotest.(check bool) "grow's alloc_ok recorded used" true
    (List.exists
       (fun s -> s.L.a_id = "alloc-ok" && has_suffix s.L.a_file "fx_kernel.ml")
       r.L.used_allows)

(* ---- u1 ---- *)

(* the test zone's call: a real caller that u1 must not count *)
let _ = Flexile_lintfx.Fx_export.test_only 0

let u1_flagged name =
  List.exists
    (fun f ->
      has_suffix f.L.file "lintfx/fx_export.mli"
      && contains f.L.message ("Flexile_lintfx.Fx_export." ^ name ^ " "))
    (findings "u1-unused-export")

let u1_positives () =
  Alcotest.(check int) "u1 count" 2 (List.length (findings "u1-unused-export"));
  Alcotest.(check bool) "uncalled val flagged" true (u1_flagged "uncalled");
  Alcotest.(check bool) "val called only from test/ flagged" true
    (u1_flagged "test_only")

let u1_negatives () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " stays clean") false (u1_flagged name))
    [ "table"; "oracle"; "called_allowed" ]

(* A fixture interface judged as lib/ code, where [rule] is active:
   the allow on the knob or val without a second caller is used, the
   one on the called or passed val is stale, which
   --strict-suppressions makes a finding. *)
let suppression_and_staleness ~rule mli () =
  let path =
    match List.find_opt Sys.file_exists [ "lintfx/" ^ mli; "test/lintfx/" ^ mli ] with
    | Some p -> p
    | None -> Alcotest.failf "fixture source %s not found" mli
  in
  let syntactic =
    L.check_source ~file:("test/lintfx/" ^ mli)
      (In_channel.with_open_bin path In_channel.input_all)
  in
  let into_lib s = { s with L.a_file = "lib/" ^ s.L.a_file } in
  let r = L.merge [ syntactic; Lazy.force report ] in
  let r =
    {
      r with
      L.declared_allows = List.map into_lib r.L.declared_allows;
      used_allows = List.map into_lib r.L.used_allows;
    }
  in
  let sites l =
    List.filter_map
      (fun s ->
        if s.L.a_id = rule && has_suffix s.L.a_file mli then Some s.L.a_line
        else None)
      l
  in
  match (sites r.L.declared_allows, sites r.L.used_allows) with
  | [ kept; called ], [ used ] ->
      Alcotest.(check int) "the kept val's allow is used" kept used;
      let stale =
        List.filter
          (fun st -> st.L.st_id = rule)
          (L.stale_suppressions ~deep:true r)
      in
      Alcotest.(check (list int)) "the called val's allow is stale" [ called ]
        (List.map (fun st -> st.L.st_line) stale);
      List.iter
        (fun st ->
          Alcotest.(check string) "strict mode finding" "s1-stale-suppress"
            (L.finding_of_stale st).L.rule)
        stale
  | d, u ->
      Alcotest.failf "expected 2 declared and 1 used %s allows, got %d and %d"
        rule (List.length d) (List.length u)

(* ---- u2 ---- *)

(* the test zone's pass: a real caller that u2 must not count *)
let _ = Flexile_lintfx.Fx_knob.test_passed ~scale:3 0

let u2_flagged what =
  List.exists
    (fun f ->
      has_suffix f.L.file "lintfx/fx_knob.mli"
      && contains f.L.message ("Flexile_lintfx.Fx_knob." ^ what ^ ":"))
    (findings "u2-single-value-knob")

let u2_positives () =
  Alcotest.(check int) "u2 count" 4
    (List.length (findings "u2-single-value-knob"));
  List.iter
    (fun (what, why) -> Alcotest.(check bool) why true (u2_flagged what))
    [
      ("never ?scale", "optional nothing passes flagged");
      ("test_passed ?scale", "optional passed only from test/ flagged");
      ("first_class ?scale", "optional of a first-class use flagged");
      ("opts.defaulted", "field only the default sets flagged");
    ]

let u2_negatives () =
  List.iter
    (fun what ->
      Alcotest.(check bool) (what ^ " stays clean") false (u2_flagged what))
    [ "forwarded ?scale"; "kept ?scale"; "passed_allowed ?scale"; "opts.overridden" ]

(* ---- d1: a clock read deciding a branch ---- *)

let clock_findings () =
  List.filter
    (fun f -> has_suffix f.L.file "lintfx/fx_clock.ml")
    (findings "d1-nondet")

let d1_clock_in_branch () =
  let fs = clock_findings () in
  Alcotest.(check int) "if, while and when" 3 (List.length fs);
  List.iter
    (fun fn ->
      Alcotest.(check bool) (fn ^ " flagged") true
        (List.exists
           (fun f -> contains f.L.message ("Flexile_lintfx.Fx_clock." ^ fn ^ ","))
           fs))
    [ "deadline"; "spin"; "pick" ];
  List.iter
    (fun fn ->
      Alcotest.(check bool) (fn ^ " stays clean") false
        (List.exists
           (fun f -> contains f.L.message ("Flexile_lintfx.Fx_clock." ^ fn ^ ","))
           fs))
    [ "elapsed"; "late" ]

(* ---- d1: environment reads ---- *)

(* fx_env judged as lib/ code: the two raw reads are findings, the
   allowed deployment setting is not, and its allow is used *)
let d1_env_reads () =
  let path =
    match
      List.find_opt Sys.file_exists [ "lintfx/fx_env.ml"; "test/lintfx/fx_env.ml" ]
    with
    | Some p -> p
    | None -> Alcotest.fail "fixture source fx_env.ml not found"
  in
  let r =
    L.check_source ~file:"lib/fx_env.ml"
      (In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check (list (pair string int)))
    "getenv_opt and getenv flagged"
    [ ("d1-nondet", 6); ("d1-nondet", 9) ]
    (List.sort compare (List.map (fun f -> (f.L.rule, f.L.line)) r.L.findings));
  Alcotest.(check int) "the allowed setting is suppressed" 1 r.L.suppressed;
  Alcotest.(check (list string)) "its allow is used, not stale" []
    (List.map (fun st -> st.L.st_id) (L.stale_suppressions ~deep:false r))

(* ---- plumbing ---- *)

let total_findings () =
  Alcotest.(check int) "exactly the seeded findings" 18
    (List.length (Lazy.force report).L.findings)

let cmt_error () =
  let r = D.analyze [ "no-such-file.cmt" ] in
  Alcotest.(check bool) "cmt-error finding" true
    (List.exists (fun f -> f.L.rule = "cmt-error") r.L.findings)

let () =
  Alcotest.run "lint-deep"
    [
      ( "i1",
        [
          Alcotest.test_case "two-hop chain" `Quick i1_two_hop_chain;
          Alcotest.test_case "tbl chain" `Quick i1_one_hop_tbl;
          Alcotest.test_case "exact set" `Quick i1_exact_set;
        ] );
      ( "i2",
        [
          Alcotest.test_case "positives" `Quick i2_positives;
          Alcotest.test_case "negatives" `Quick i2_negatives;
          Alcotest.test_case "suppression used" `Quick i2_suppression_used;
        ] );
      ( "i3",
        [
          Alcotest.test_case "direct tuple" `Quick i3_direct_tuple;
          Alcotest.test_case "transitive chain" `Quick i3_transitive_chain;
          Alcotest.test_case "closure" `Quick i3_closure;
          Alcotest.test_case "cross-unit float" `Quick i3_cross_unit_float;
          Alcotest.test_case "negatives" `Quick i3_negatives;
          Alcotest.test_case "alloc_ok used" `Quick i3_alloc_ok_used;
        ] );
      ( "u1",
        [
          Alcotest.test_case "positives" `Quick u1_positives;
          Alcotest.test_case "negatives" `Quick u1_negatives;
          Alcotest.test_case "suppression and staleness" `Quick
            (suppression_and_staleness ~rule:"u1-unused-export" "fx_export.mli");
        ] );
      ( "u2",
        [
          Alcotest.test_case "positives" `Quick u2_positives;
          Alcotest.test_case "negatives" `Quick u2_negatives;
          Alcotest.test_case "suppression and staleness" `Quick
            (suppression_and_staleness ~rule:"u2-single-value-knob" "fx_knob.mli");
        ] );
      ( "d1",
        [
          Alcotest.test_case "clock read in a branch" `Quick d1_clock_in_branch;
          Alcotest.test_case "environment reads" `Quick d1_env_reads;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "total findings" `Quick total_findings;
          Alcotest.test_case "cmt error" `Quick cmt_error;
        ] );
    ]
