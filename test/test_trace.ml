(* Tests of the Trace observability layer: cross-domain counter
   aggregation, exactness of the solver counters against the solver's
   own result fields, the disabled-by-default contract, and the JSON
   report shape. *)

module Trace = Flexile_util.Trace
module Parallel = Flexile_util.Parallel
module Offline = Flexile_te.Flexile_offline

let with_tracing enabled f =
  let was = Trace.enabled () in
  Trace.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) f

(* ---- counters sum across domains ---- *)

let test_counter_sums_across_domains () =
  with_tracing true @@ fun () ->
  let c = Trace.counter "test.cross_domain" in
  let base = Trace.value_by_name "test.cross_domain" in
  let n = 103 in
  let _ =
    Parallel.map ~jobs:4 ~n
      ~init:(fun _ -> ())
      ~f:(fun () i ->
        Trace.incr c;
        i)
      ()
  in
  Alcotest.(check int) "n increments over 4 domains" (base + n)
    (Trace.value_by_name "test.cross_domain")

let test_timer_and_gauge_merge () =
  with_tracing true @@ fun () ->
  let t = Trace.timer "test.span" in
  let g = Trace.gauge "test.gauge" in
  let n0 = Trace.timer_count_by_name "test.span" in
  let _ =
    Parallel.map ~jobs:2 ~n:8
      ~init:(fun _ -> ())
      ~f:(fun () i ->
        Trace.with_span t (fun () -> Trace.gauge_max g i);
        i)
      ()
  in
  Alcotest.(check int) "span count sums" (n0 + 8)
    (Trace.timer_count_by_name "test.span");
  Alcotest.(check int) "gauge keeps the max" 7
    (Trace.value_by_name "test.gauge");
  if Trace.timer_seconds_by_name "test.span" < 0. then
    Alcotest.fail "negative span time"

(* ---- disabled tracing records nothing ---- *)

let test_disabled_records_nothing () =
  with_tracing false @@ fun () ->
  let c = Trace.counter "test.disabled_counter" in
  let t = Trace.timer "test.disabled_timer" in
  let c0 = Trace.value_by_name "test.disabled_counter"
  and n0 = Trace.timer_count_by_name "test.disabled_timer" in
  Trace.incr c;
  Trace.add c 41;
  Trace.with_span t (fun () -> ());
  Alcotest.(check int) "counter untouched" c0
    (Trace.value_by_name "test.disabled_counter");
  Alcotest.(check int) "timer untouched" n0
    (Trace.timer_count_by_name "test.disabled_timer")

(* ---- solver counters are exact ---- *)

let test_flexile_counters_exact () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  let inst = Flexile_core.Builder.fig1 () in
  let r = Offline.solve inst in
  Alcotest.(check int)
    "subproblems counter = result field" r.Offline.subproblems_solved
    (Trace.value_by_name "flexile.subproblems_solved");
  Alcotest.(check int)
    "iteration counter = iterate count"
    (List.length r.Offline.iterates)
    (Trace.value_by_name "flexile.iterations");
  if Trace.timer_seconds_by_name "flexile.subproblem_sweep" <= 0. then
    Alcotest.fail "sweep timer did not accumulate"

(* ---- the Benders loop's stop reasons ---- *)

let stop_names =
  [
    "flexile.stop_gap_closed"; "flexile.stop_same_plan";
    "flexile.stop_max_iterations"; "flexile.stop_master_failed";
  ]

(* [solve] with the deltas of the stop counters and of master solves *)
let solve_counting ?config inst =
  let names = "flexile.master_solves" :: stop_names in
  let before = List.map Trace.value_by_name names in
  let r = Offline.solve ?config inst in
  match List.map2 (fun n b -> Trace.value_by_name n - b) names before with
  | masters :: stops -> (r, masters, stops)
  | [] -> assert false

(* Exactly one reason per solve; the cases cover three of the four.
   The loop stops after a sweep (the gap closed, or the last sweep) or
   after a master (the gap closed, or the same plan again).  A master
   under a Hamming row is optimal only inside its trust region, so its
   bound must not reach [lower_bound]: the IBM run limited to no flips
   reports no bound above what the unlimited run achieves. *)
let test_flexile_one_stop_reason () =
  with_tracing true @@ fun () ->
  let small name mix =
    Flexile_core.Builder.of_name
      ~options:
        {
          Flexile_core.Builder.default_options with
          max_scenarios = 30;
          max_pairs = 40;
          scenario_mix = mix;
        }
      name
  in
  let fig1 = Flexile_core.Builder.fig1 () in
  let ibm_mix = small "IBM" "srlg,partial" in
  let results =
    List.map
      (fun (what, inst, max_iterations, hamming_limit, reason, after_master) ->
        let config =
          { Offline.default_config with max_iterations; hamming_limit; jobs = 1 }
        in
        let r, masters, stops = solve_counting ~config inst in
        Alcotest.(check (list int))
          (what ^ ": only " ^ reason)
          (List.map (fun n -> if n = reason then 1 else 0) stop_names)
          stops;
        let sweeps = List.length r.Offline.iterates in
        Alcotest.(check int)
          (what ^ ": masters")
          (if after_master then sweeps else sweeps - 1)
          masters;
        (what, r))
      [
        ("fig1", fig1, 5, None, "flexile.stop_gap_closed", false);
        ("fig1, one sweep", fig1, 1, None, "flexile.stop_max_iterations", false);
        ("Sprint", small "Sprint" "independent", 5, None, "flexile.stop_gap_closed", false);
        ("IBM srlg,partial", ibm_mix, 5, None, "flexile.stop_max_iterations", false);
        ("IBM srlg,partial, no flips", ibm_mix, 5, Some 0, "flexile.stop_same_plan", true);
      ]
  in
  let ibm = List.assoc "IBM srlg,partial" results in
  let hamming = List.assoc "IBM srlg,partial, no flips" results in
  Alcotest.(check bool) "a Hamming master's bound is no lower bound" true
    (hamming.Offline.lower_bound <= ibm.Offline.best.Offline.penalty)

(* IBM two-class is served losslessly from the starting point: its
   penalty 0 meets the initial bound 0, so no master is solved. *)
let test_flexile_gap_closed_at_start () =
  with_tracing true @@ fun () ->
  let inst =
    Flexile_core.Builder.of_name
      ~options:{ Flexile_core.Builder.default_options with jobs = 1 }
      ~two_classes:true "IBM"
  in
  let config = { Offline.default_config with jobs = 1 } in
  let r, masters, stops = solve_counting ~config inst in
  Alcotest.(check (list int)) "stopped on the closed gap" [ 1; 0; 0; 0 ] stops;
  Alcotest.(check int) "no master" 0 masters;
  Alcotest.(check int) "one sweep" 1 (List.length r.Offline.iterates);
  Alcotest.(check (float 0.)) "best penalty" 0. r.Offline.best.Offline.penalty;
  Alcotest.(check (float 0.)) "lower bound" 0. r.Offline.lower_bound

let test_flexile_disabled_counts_zero () =
  Trace.reset ();
  with_tracing false @@ fun () ->
  let inst = Flexile_core.Builder.fig1 () in
  let r = Offline.solve inst in
  if r.Offline.subproblems_solved <= 0 then
    Alcotest.fail "toy instance should solve subproblems";
  Alcotest.(check int) "disabled: counter stays zero" 0
    (Trace.value_by_name "flexile.subproblems_solved")

(* ---- JSON report ---- *)

let test_json_shape () =
  with_tracing true @@ fun () ->
  Trace.incr (Trace.counter "test.json_counter");
  let j = Flexile_util.Json.encode (Flexile_util.Trace_export.report_json ()) in
  let must s =
    let n = String.length s in
    let found = ref false in
    for i = 0 to String.length j - n do
      if String.sub j i n = s then found := true
    done;
    if not !found then Alcotest.failf "report lacks %s: %s" s j
  in
  List.iter must
    [
      "\"enabled\":true"; "\"report\""; "\"counters\""; "\"test.json_counter\"";
      "\"timers\""; "\"solver_health\""; "\"span_tree\""; "\"drops\"";
    ]

(* ---- histograms ---- *)

let test_hist_edge_cases () =
  with_tracing true @@ fun () ->
  let h = Trace.hist "test.hist_edges" in
  Trace.observe h 0.;
  Trace.observe h (-3.);
  Trace.observe h Float.nan;
  Trace.observe h 1.0;
  let s = Trace.hist_snapshot_by_name "test.hist_edges" in
  Alcotest.(check int) "count includes nan" 4 s.Trace.hist_count;
  (match s.Trace.hist_buckets with
  | (ub0, c0) :: _ ->
      Alcotest.(check (float 0.)) "nonpositive slot reports bound 0" 0. ub0;
      Alcotest.(check int) "zero, negative and nan land in slot 0" 3 c0
  | [] -> Alcotest.fail "no buckets");
  Alcotest.(check (float 1e-12)) "sum excludes nan" (-2.) s.Trace.hist_sum;
  Alcotest.(check (float 0.)) "min exact" (-3.) s.Trace.hist_min;
  Alcotest.(check (float 0.)) "max exact" 1.0 s.Trace.hist_max

let test_hist_bucket_bounds () =
  with_tracing true @@ fun () ->
  (* every in-range positive value lands in a bucket whose (exclusive)
     upper bound is above it by at most the 1/16-octave width *)
  List.iteri
    (fun i v ->
      let name = Printf.sprintf "test.hist_bound_%d" i in
      Trace.observe (Trace.hist name) v;
      match (Trace.hist_snapshot_by_name name).Trace.hist_buckets with
      | [ (ub, 1) ] ->
          if not (v < ub) then
            Alcotest.failf "%g not below its bucket bound %g" v ub;
          if ub > v *. 1.07 then
            Alcotest.failf "bucket bound %g too loose for %g" ub v
      | bs -> Alcotest.failf "expected one bucket, got %d" (List.length bs))
    [ 0.75; 1.0; 1.0000001; 2.0; 1e9; 0.1; 3.14159 ];
  (* below-range values clamp into the lowest positive bucket *)
  let h = Trace.hist "test.hist_below" in
  Trace.observe h (Float.ldexp 1. (-40));
  (match (Trace.hist_snapshot_by_name "test.hist_below").Trace.hist_buckets with
  | [ (ub, 1) ] -> if not (ub > 0.) then Alcotest.fail "clamped-low bound"
  | _ -> Alcotest.fail "clamped-low bucket count");
  (* above-range values clamp into the top bucket; the exact maximum
     still comes back through the quantile clamp *)
  let h = Trace.hist "test.hist_above" in
  Trace.observe h 1e12;
  Alcotest.(check (float 0.)) "q=1 reads the exact max" 1e12
    (Trace.hist_quantile_of (Trace.hist_snapshot_by_name "test.hist_above") 1.0)

let test_hist_merge_deterministic () =
  with_tracing true @@ fun () ->
  let hp = Trace.hist "test.hist_par" in
  let hs = Trace.hist "test.hist_seq" in
  let n = 400 in
  let value i = Float.of_int ((i * 7919 mod 1000) - 50) /. 37. in
  let _ =
    Parallel.map ~jobs:4 ~n
      ~init:(fun _ -> ())
      ~f:(fun () i ->
        Trace.observe hp (value i);
        i)
      ()
  in
  for i = 0 to n - 1 do
    Trace.observe hs (value i)
  done;
  let sp = Trace.hist_snapshot_by_name "test.hist_par"
  and ss = Trace.hist_snapshot_by_name "test.hist_seq" in
  Alcotest.(check int) "counts agree" ss.Trace.hist_count sp.Trace.hist_count;
  Alcotest.(check (float 1e-9)) "sums agree" ss.Trace.hist_sum
    sp.Trace.hist_sum;
  Alcotest.(check (float 0.)) "min agrees" ss.Trace.hist_min sp.Trace.hist_min;
  Alcotest.(check (float 0.)) "max agrees" ss.Trace.hist_max sp.Trace.hist_max;
  if
    not
      (List.length sp.Trace.hist_buckets = List.length ss.Trace.hist_buckets
      && List.for_all2
           (fun (u1, c1) (u2, c2) -> Float.compare u1 u2 = 0 && c1 = c2)
           sp.Trace.hist_buckets ss.Trace.hist_buckets)
  then Alcotest.fail "parallel merge differs from sequential";
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "q=%g agrees" q)
        (Trace.hist_quantile_of ss q)
        (Trace.hist_quantile_of sp q))
    [ 0.; 0.5; 0.9; 0.95; 0.99; 1. ]

let test_hist_quantile_monotone () =
  with_tracing true @@ fun () ->
  let h = Trace.hist "test.hist_quantiles" in
  for i = 1 to 1000 do
    Trace.observe h (Float.of_int (i * i) /. 1e4)
  done;
  let s = Trace.hist_snapshot_by_name "test.hist_quantiles" in
  let prev = ref Float.neg_infinity in
  for i = 0 to 100 do
    let q = Float.of_int i /. 100. in
    let v = Trace.hist_quantile_of s q in
    if v < !prev then Alcotest.failf "quantile not monotone at q=%g" q;
    prev := v
  done;
  if Trace.hist_quantile_of s 1.0 > s.Trace.hist_max +. 1e-12 then
    Alcotest.fail "quantile exceeds the tracked max";
  (* empty histograms read as nan *)
  ignore (Trace.hist "test.hist_empty");
  let e = Trace.hist_snapshot_by_name "test.hist_empty" in
  if not (Float.is_nan (Trace.hist_quantile_of e 0.5)) then
    Alcotest.fail "empty quantile should be nan"

let test_hist_disabled () =
  with_tracing false @@ fun () ->
  let h = Trace.hist "test.hist_disabled" in
  Trace.observe h 1.0;
  let r = Trace.observe_duration h (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result passes through" 42 r;
  Alcotest.(check int) "disabled records nothing" 0
    (Trace.hist_snapshot_by_name "test.hist_disabled").Trace.hist_count

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flexile_trace"
    [
      ( "aggregation",
        [
          quick "counters sum across domains" test_counter_sums_across_domains;
          quick "timers and gauges merge" test_timer_and_gauge_merge;
        ] );
      ( "disabled",
        [
          quick "no-op when disabled" test_disabled_records_nothing;
          quick "solver counters stay zero" test_flexile_disabled_counts_zero;
        ] );
      ( "solver",
        [
          quick "offline counters exact" test_flexile_counters_exact;
          quick "one stop reason per offline solve" test_flexile_one_stop_reason;
          quick "gap closed by the starting point" test_flexile_gap_closed_at_start;
        ] );
      ("json", [ quick "report shape" test_json_shape ]);
      ( "histograms",
        [
          quick "zero/negative/nan edge cases" test_hist_edge_cases;
          quick "bucket bounds tight and half-open" test_hist_bucket_bounds;
          quick "parallel merge == sequential" test_hist_merge_deterministic;
          quick "quantiles monotone, clamped to max" test_hist_quantile_monotone;
          quick "disabled is a no-op" test_hist_disabled;
        ] );
    ]
