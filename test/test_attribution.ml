(* Properties of the miss-attribution engine (DESIGN.md section 13):

   - reconciliation: per class, attributed scenario mass + beyond-top
     mass + unenumerated mass telescopes back to the miss mass to
     within 1e-9, across scenario-regime mixes and promise tightness
     levels (as-solved, halved, impossible);
   - regret: online class max loss minus the clairvoyant class optimum
     is nonnegative up to LP tolerance for every (class, scenario);
   - determinism: the full report JSON is byte-identical across job
     counts;
   - regime tags: scenario 0 is nominal, every tag comes from the
     known regime vocabulary, and a composed mix carries at least two
     distinct non-nominal regimes. *)

module Trace = Flexile_util.Trace
module Instance = Flexile_te.Instance
module Metrics = Flexile_te.Metrics
module Offline = Flexile_te.Flexile_offline
module Attribution = Flexile_obs.Attribution
module Export = Flexile_util.Trace_export

let build mix =
  let options =
    {
      Flexile_core.Builder.default_options with
      Flexile_core.Builder.max_scenarios = 16;
      max_pairs = 30;
      scenario_mix = mix;
    }
  in
  Flexile_core.Builder.of_name ~options ~two_classes:true "IBM"

let solve inst =
  Offline.solve
    ~config:
      { Offline.default_config with Offline.max_iterations = 1; jobs = 2 }
    inst

let promises inst losses =
  Array.init (Array.length inst.Instance.classes) (fun k ->
      Metrics.perc_loss inst losses ~cls:k)

(* one (instance, offline) pair per mix, shared across tests *)
let setup =
  let cache = Hashtbl.create 4 in
  fun mix ->
    match Hashtbl.find_opt cache mix with
    | Some v -> v
    | None ->
        let inst = build mix in
        let off = solve inst in
        let v = (inst, off) in
        Hashtbl.add cache mix v;
        v

let mixes = [ "srlg,partial,drift"; "independent" ]

(* ---- reconciliation: attributed mass == miss mass to 1e-9 ---- *)

let test_reconciliation () =
  List.iter
    (fun mix ->
      let inst, off = setup mix in
      let solved = promises inst off.Offline.best.Offline.losses in
      List.iter
        (fun (label, scale) ->
          let promised = Array.map (fun p -> p *. scale) solved in
          let inp = Attribution.prepare ~jobs:2 inst ~offline:off ~promised () in
          (* top:2 forces mass into other_mass as well *)
          let rep =
            Attribution.analyze ~top:2 inp
              ~losses:(Attribution.online_losses inp)
          in
          List.iter
            (fun (a : Attribution.class_attr) ->
              let total = Attribution.attributed_total a in
              if Float.abs (total -. a.Attribution.amiss_mass) > 1e-9 then
                Alcotest.failf
                  "%s/%s class %d: attributed %.15f vs miss mass %.15f" mix
                  label a.Attribution.acls total a.Attribution.amiss_mass;
              (* attributed mass is also bounded by each scenario's
                 probability and nonnegative *)
              List.iter
                (fun (s : Attribution.scen_attr) ->
                  if s.Attribution.sattr < 0. then
                    Alcotest.failf "%s/%s: negative attributed mass" mix label;
                  if s.Attribution.sattr > s.Attribution.sprob +. 1e-12 then
                    Alcotest.failf "%s/%s: attributed beyond scenario mass"
                      mix label)
                a.Attribution.ascenarios)
            rep.Attribution.classes)
        [ ("as-solved", 1.); ("halved", 0.5); ("impossible", 0.) ])
    mixes

(* a missed promise must actually surface positive miss mass *)
let test_impossible_promise_misses () =
  let inst, off = setup "srlg,partial,drift" in
  let nk = Array.length inst.Instance.classes in
  let promised = Array.make nk (-1.) in
  let inp = Attribution.prepare ~jobs:2 inst ~offline:off ~promised () in
  let rep = Attribution.analyze inp ~losses:(Attribution.online_losses inp) in
  List.iter
    (fun (a : Attribution.class_attr) ->
      if a.Attribution.aattained then
        Alcotest.failf "class %d attained an impossible promise"
          a.Attribution.acls;
      if a.Attribution.amiss_mass <= 0. then
        Alcotest.failf "class %d: impossible promise but zero miss mass"
          a.Attribution.acls)
    rep.Attribution.classes

(* ---- regret nonnegativity ---- *)

let test_regret_nonnegative () =
  List.iter
    (fun mix ->
      let inst, off = setup mix in
      let promised = promises inst off.Offline.best.Offline.losses in
      let inp = Attribution.prepare ~jobs:2 inst ~offline:off ~promised () in
      let regret = Attribution.regret inp in
      Array.iteri
        (fun k row ->
          Array.iteri
            (fun sid r ->
              if r < -1e-6 then
                Alcotest.failf "%s: negative regret %.9f at class %d sid %d"
                  mix r k sid)
            row)
        regret)
    mixes

(* ---- determinism across job counts ---- *)

let test_jobs_determinism () =
  let inst, off = setup "srlg,partial,drift" in
  let promised = promises inst off.Offline.best.Offline.losses in
  let report jobs =
    let inp = Attribution.prepare ~jobs inst ~offline:off ~promised () in
    Flexile_util.Json.encode
    @@ Attribution.report_json
         (Attribution.analyze ~top:3 inp ~losses:(Attribution.online_losses inp))
  in
  Alcotest.(check string) "report jobs 1 vs 4" (report 1) (report 4)

(* ---- regime tags ---- *)

let known_regimes =
  [
    "nominal"; "independent"; "srlg"; "partial"; "drift"; "diurnal";
    "maintenance"; "mixed";
  ]

let test_regime_tags () =
  let inst, _ = setup "srlg,partial,drift" in
  Alcotest.(check string)
    "scenario 0 is nominal" "nominal"
    (Instance.regime inst ~sid:0);
  let names = Instance.regime_names inst in
  List.iter
    (fun r ->
      if not (List.mem r known_regimes) then
        Alcotest.failf "unknown regime tag %S" r)
    names;
  let non_nominal =
    List.filter (fun r -> not (String.equal r "nominal")) names
  in
  if List.length non_nominal < 2 then
    Alcotest.failf "mixed set carries %d non-nominal regimes"
      (List.length non_nominal)

(* the paper's independent mix tags every scenario "nominal" or
   "independent" *)
let test_regime_fallback () =
  let inst, _ = setup "independent" in
  Alcotest.(check string)
    "scenario 0 is nominal" "nominal"
    (Instance.regime inst ~sid:0);
  let tagged =
    List.for_all
      (fun r -> String.equal r "nominal" || String.equal r "independent")
      (Instance.regime_names inst)
  in
  Alcotest.(check bool) "fallback tags" true tagged

(* ---- Prometheus label escaping (satellite) ---- *)

let test_label_escape () =
  let escaped value =
    let page = Export.labeled_gauge ~name:"x" [ ([ ("l", value) ], 1.5) ] in
    let prefix = "# TYPE flexile_x gauge\nflexile_x{l=\""
    and suffix = "\"} 1.5\n" in
    let n = String.length page - String.length prefix - String.length suffix in
    String.sub page (String.length prefix) n
  in
  Alcotest.(check string) "backslash" "a\\\\b" (escaped "a\\b");
  Alcotest.(check string) "quote" "a\\\"b" (escaped "a\"b");
  Alcotest.(check string) "newline" "a\\nb" (escaped "a\nb");
  Alcotest.(check string) "plain" "high-priority" (escaped "high-priority");
  let page =
    Export.labeled_gauge ~name:"slo.test"
      [ ([ ("class", "we\"ird\\cls\n") ], 1.5) ]
  in
  Alcotest.(check string) "labeled gauge escapes"
    "# TYPE flexile_slo_test gauge\n\
     flexile_slo_test{class=\"we\\\"ird\\\\cls\\n\"} 1.5\n"
    page

let () =
  (* the regret histogram is registered lazily; keep tracing off so
     test output stays independent of registry state *)
  Trace.set_enabled false;
  Alcotest.run "flexile_attribution"
    [
      ( "attribution",
        [
          Alcotest.test_case "reconciliation to 1e-9" `Quick
            test_reconciliation;
          Alcotest.test_case "impossible promise misses" `Quick
            test_impossible_promise_misses;
          Alcotest.test_case "regret nonnegative" `Quick
            test_regret_nonnegative;
          Alcotest.test_case "report jobs 1 vs 4" `Quick test_jobs_determinism;
        ] );
      ( "regimes",
        [
          Alcotest.test_case "mixed-set tags" `Quick test_regime_tags;
          Alcotest.test_case "independent fallback" `Quick
            test_regime_fallback;
        ] );
      ( "prometheus",
        [ Alcotest.test_case "label escaping" `Quick test_label_escape ] );
    ]
