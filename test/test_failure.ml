(* Tests for the failure model: Weibull sampling, scenario enumeration
   order/disjointness/probabilities, SRLGs, and coverage. *)

module FM = Flexile_failure.Failure_model
module Prng = Flexile_util.Prng

let quick name f = Alcotest.test_case name `Quick f

let test_weibull_median () =
  let graph = Flexile_net.Catalog.by_name "Tinet" in
  let seed = Prng.of_string "weibull-test" in
  let m = FM.independent_links ~graph ~seed () in
  let unit_probs = Array.map (fun u -> u.FM.states.(0).FM.prob) m.FM.units in
  let probs = Array.copy unit_probs in
  Array.sort compare probs;
  let median = probs.(Array.length probs / 2) in
  (* sampling noise allows a loose band around the target 0.001 *)
  if median < 1e-4 || median > 1e-2 then
    Alcotest.failf "median failure probability %.5f not near 0.001" median;
  Array.iter
    (fun p ->
      if p < 1e-5 -. 1e-12 || p > 0.3 +. 1e-12 then
        Alcotest.failf "probability %f outside clamp" p)
    unit_probs

let test_enumeration_order_and_probs () =
  let m = FM.binary ~nedges:3 [| 0.1; 0.2; 0.3 |] in
  let scenarios = FM.enumerate ~cutoff:0. ~max_scenarios:100 m in
  Alcotest.(check int) "all 8 subsets" 8 (Array.length scenarios);
  (* non-increasing probability *)
  for i = 1 to Array.length scenarios - 1 do
    if scenarios.(i).FM.prob > scenarios.(i - 1).FM.prob +. 1e-12 then
      Alcotest.fail "probabilities not sorted"
  done;
  (* probabilities sum to exactly 1 over all subsets *)
  let total = FM.coverage scenarios in
  Alcotest.(check (float 1e-9)) "total mass" 1.0 total;
  (* the no-failure scenario must be first with prob 0.9*0.8*0.7 *)
  Alcotest.(check (float 1e-12)) "no-failure prob" (0.9 *. 0.8 *. 0.7)
    scenarios.(0).FM.prob;
  Alcotest.(check int) "no failures" 0
    (Array.length scenarios.(0).FM.failed_units)

let test_enumeration_cutoff () =
  let m = FM.binary ~nedges:4 [| 0.01; 0.01; 0.01; 0.01 |] in
  let scenarios = FM.enumerate ~cutoff:1e-4 ~max_scenarios:1000 m in
  (* no-failure (0.96), 4 singles (~0.0097), doubles ~9.8e-5 < cutoff *)
  Alcotest.(check int) "singles only" 5 (Array.length scenarios);
  Array.iter
    (fun s ->
      if s.FM.prob < 1e-4 then Alcotest.fail "scenario below cutoff included")
    scenarios

(* the enumerated scenario in which exactly [failed] are down *)
let scenario_with m failed =
  Array.to_list (FM.enumerate ~cutoff:0. ~max_scenarios:100 m)
  |> List.find (fun (s : FM.scenario) -> s.FM.failed_units = failed)

let test_scenario_alive_mask () =
  let m = FM.binary ~nedges:3 [| 0.1; 0.1; 0.1 |] in
  let s = scenario_with m [| 1 |] in
  Alcotest.(check bool) "edge 0 alive" true s.FM.edge_alive.(0);
  Alcotest.(check bool) "edge 1 dead" false s.FM.edge_alive.(1);
  Alcotest.(check (float 1e-12)) "probability" (0.9 *. 0.1 *. 0.9) s.FM.prob

let test_srlg_groups () =
  (* two SRLGs over 4 edges: {0,1} and {2,3} *)
  let m = FM.binary ~groups:[| [| 0; 1 |]; [| 2; 3 |] |] ~nedges:4 [| 0.2; 0.1 |] in
  let s = scenario_with m [| 0 |] in
  Alcotest.(check bool) "edge 0 dead" false s.FM.edge_alive.(0);
  Alcotest.(check bool) "edge 1 dead" false s.FM.edge_alive.(1);
  Alcotest.(check bool) "edge 2 alive" true s.FM.edge_alive.(2);
  Alcotest.(check (float 1e-12)) "prob" (0.2 *. 0.9) s.FM.prob

(* best-first enumeration needs every state less likely than the
   nominal one: the constructor rejects a unit of mass >= 0.5 *)
let test_high_prob_guard () =
  Alcotest.check_raises "p >= 0.5 rejected"
    (Invalid_argument
       "Failure_model: unit unit-0 total state mass 0.600 >= 0.5 breaks \
        best-first enumeration") (fun () -> ignore (FM.binary ~nedges:1 [| 0.6 |]))

let qcheck_enumeration_is_top_k =
  (* enumeration with a count cap must return the k most probable
     scenarios (verified against exhaustive enumeration) *)
  let gen =
    QCheck.Gen.(
      pair (int_range 1 5)
        (list_size (return 6) (map (fun i -> float_of_int i /. 25.) (int_range 1 10))))
  in
  QCheck.Test.make ~name:"enumerate returns the top-k scenarios" ~count:80
    (QCheck.make gen) (fun (k, probs) ->
      let probs = Array.of_list probs in
      let n = Array.length probs in
      let m = FM.binary ~nedges:n probs in
      let top = FM.enumerate ~cutoff:0. ~max_scenarios:k m in
      (* exhaustive *)
      let all = ref [] in
      for mask = 0 to (1 lsl n) - 1 do
        let p = ref 1. in
        for e = 0 to n - 1 do
          if mask land (1 lsl e) <> 0 then p := !p *. probs.(e)
          else p := !p *. (1. -. probs.(e))
        done;
        all := !p :: !all
      done;
      let sorted = List.sort (fun a b -> compare b a) !all in
      let expected = List.filteri (fun i _ -> i < k) sorted in
      let got = Array.to_list (Array.map (fun s -> s.FM.prob) top) in
      List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-12) expected got)

let () =
  Alcotest.run "flexile_failure"
    [
      ( "model",
        [
          quick "weibull median" test_weibull_median;
          quick "srlg groups" test_srlg_groups;
          quick "p >= 0.5 guard" test_high_prob_guard;
        ] );
      ( "enumeration",
        [
          quick "order and probabilities" test_enumeration_order_and_probs;
          quick "cutoff" test_enumeration_cutoff;
          quick "alive mask" test_scenario_alive_mask;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_enumeration_is_top_k ]);
    ]
