(* Unit tests for the post-analysis metrics (Definitions 2.1, 4.1, 4.2)
   against hand-computed values on a crafted instance. *)

open Flexile_te
module FM = Flexile_failure.Failure_model

let quick name f = Alcotest.test_case name `Quick f

let check_float ~msg expected actual =
  if Float.abs (expected -. actual) > 1e-9 then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

(* Triangle with two flows and up to 8 exhaustively-enumerated
   scenarios (p_link = 0.1 so every subset has significant mass).
   Scenario masses: all-alive 0.729, each single failure 0.081, each
   double failure 0.009, total blackout 0.001; [max_scenarios] keeps
   the heaviest ones, so 1 covers mass 0.729 and 2 covers 0.81. *)
let make_inst ?(max_scenarios = 8) () =
  let graph = Flexile_net.Catalog.triangle () in
  let mk pair edges = Flexile_net.Tunnels.make graph ~pair (Array.of_list edges) in
  let fm = FM.binary ~nedges:3 [| 0.1; 0.1; 0.1 |] in
  let scenarios = FM.enumerate ~cutoff:0. ~max_scenarios fm in
  let inst =
    Instance.make ~graph
      ~classes:
        [|
          { Instance.cname = "hi"; beta = 0.9; weight = 10. };
          { Instance.cname = "lo"; beta = 0.8; weight = 1. };
        |]
      ~pairs:[| (0, 1); (0, 2) |]
      ~tunnels:
        [|
          [| [| mk (0, 1) [ 0 ] |]; [| mk (0, 2) [ 1 ] |] |];
          [| [| mk (0, 1) [ 0 ] |]; [| mk (0, 2) [ 1 ] |] |];
        |]
      ~demands:[| [| 1.; 1. |]; [| 1.; 0. |] |]
      ~scenarios ()
  in
  inst

let test_flow_var () =
  let inst = make_inst () in
  let losses = Instance.alloc_losses inst in
  (* flow 0 (class hi, pair 0): loss 0 except 0.4 whenever edge 0 is
     down (mass 0.1) *)
  let f0 = inst.Instance.flows.(0) in
  Array.iter
    (fun (s : FM.scenario) ->
      losses.(0).(s.FM.sid) <- (if s.FM.edge_alive.(0) then 0. else 0.4))
    inst.Instance.scenarios;
  check_float ~msg:"VaR at 0.9 skips the 0.1 tail" 0.
    (Metrics.flow_loss_var inst losses f0 ~beta:0.9);
  check_float ~msg:"VaR at 0.95 catches it" 0.4
    (Metrics.flow_loss_var inst losses f0 ~beta:0.95);
  (* CVaR at 0.9: the worst 0.1 mass all at 0.4 *)
  let samples =
    Array.map
      (fun (s : FM.scenario) -> (losses.(0).(s.FM.sid), s.FM.prob))
      inst.Instance.scenarios
  in
  check_float ~msg:"CVaR at 0.9" 0.4
    (Flexile_util.Stats.weighted_cvar samples ~beta:0.9)

let test_perc_loss_max_over_flows () =
  let inst = make_inst () in
  let losses = Instance.alloc_losses inst in
  Array.iter (fun row -> Array.fill row 0 (Instance.nscenarios inst) 0.) losses;
  (* class hi flows: 0 and 1; give flow 1 a constant 0.2 loss *)
  Array.fill losses.(1) 0 (Instance.nscenarios inst) 0.2;
  check_float ~msg:"PercLoss hi = max over flows" 0.2
    (Metrics.perc_loss inst losses ~cls:0);
  (* zero-demand flow 3 (class lo, pair 1) must be ignored *)
  Array.fill losses.(3) 0 (Instance.nscenarios inst) 0.9;
  check_float ~msg:"zero-demand flow ignored" 0.
    (Metrics.perc_loss inst losses ~cls:1)

let test_scen_loss () =
  let inst = make_inst () in
  let losses = Instance.alloc_losses inst in
  Array.iter (fun row -> Array.fill row 0 (Instance.nscenarios inst) 0.) losses;
  losses.(0).(0) <- 0.3;
  losses.(1).(0) <- 0.5;
  check_float ~msg:"worst flow in scenario" 0.5
    (Metrics.scen_loss inst losses ~sid:0);
  (* disconnected flows excluded by default: find a scenario where
     edge 0 is dead -> flow 0 disconnected there *)
  let sid =
    let found = ref (-1) in
    Array.iter
      (fun (s : FM.scenario) ->
        if !found < 0 && not s.FM.edge_alive.(0) && s.FM.edge_alive.(1) then
          found := s.FM.sid)
      inst.Instance.scenarios;
    !found
  in
  losses.(0).(sid) <- 1.0;
  losses.(1).(sid) <- 0.1;
  check_float ~msg:"disconnected excluded" 0.1
    (Metrics.scen_loss inst losses ~sid)

let test_weighted_penalty () =
  let inst = make_inst () in
  let losses = Instance.alloc_losses inst in
  Array.iter (fun row -> Array.fill row 0 (Instance.nscenarios inst) 0.) losses;
  Array.fill losses.(0) 0 (Instance.nscenarios inst) 0.1;
  (* hi class PercLoss 0.1 with weight 10; lo class 0 *)
  check_float ~msg:"sum of weighted PercLoss" 1.0
    (Metrics.total_weighted_penalty inst losses)

let test_flow_var_cdf () =
  let inst = make_inst () in
  let losses = Instance.alloc_losses inst in
  Array.iter (fun row -> Array.fill row 0 (Instance.nscenarios inst) 0.) losses;
  Array.fill losses.(1) 0 (Instance.nscenarios inst) 0.25;
  let cdf = Metrics.flow_var_cdf inst losses ~cls:0 ~beta:0.9 in
  (* two flows: one at 0, one at 0.25 *)
  Alcotest.(check int) "two points" 2 (List.length cdf);
  (match cdf with
  | [ (v1, c1); (v2, c2) ] ->
      check_float ~msg:"first value" 0. v1;
      check_float ~msg:"first cum" 0.5 c1;
      check_float ~msg:"second value" 0.25 v2;
      check_float ~msg:"second cum" 1.0 c2
  | _ -> Alcotest.fail "unexpected cdf shape")

let test_demand_in () =
  let inst = make_inst () in
  let f0 = inst.Instance.flows.(0) in
  check_float ~msg:"no factors" 1. (Instance.demand_in inst f0 3);
  let factors =
    Array.make_matrix (Instance.nscenarios inst) (Instance.nflows inst) 1.
  in
  factors.(3).(0) <- 0.5;
  let graph = inst.Instance.graph in
  let inst2 =
    Instance.make ~graph ~classes:inst.Instance.classes
      ~pairs:inst.Instance.pairs ~tunnels:inst.Instance.tunnels
      ~demands:[| [| 1.; 1. |]; [| 1.; 0. |] |]
      ~demand_factors:factors ~scenarios:inst.Instance.scenarios ()
  in
  check_float ~msg:"factor applied" 0.5
    (Instance.demand_in inst2 inst2.Instance.flows.(0) 3);
  check_float ~msg:"other scenario unaffected" 1.
    (Instance.demand_in inst2 inst2.Instance.flows.(0) 2)

(* ---- edge cases: partial enumeration, degenerate betas ---- *)

let test_unenumerated_mass_is_worst_loss () =
  (* only the 2 heaviest scenarios: enumerated mass 0.81.  The hi class
     (beta 0.9) cannot reach its percentile inside the observed mass,
     so its VaR is the worst loss 1.0 even though every observed loss
     is zero; the lo class (beta 0.8 <= 0.81) still sees 0. *)
  let inst = make_inst ~max_scenarios:2 () in
  Alcotest.(check int) "two scenarios" 2 (Instance.nscenarios inst);
  let losses = Instance.alloc_losses inst in
  Array.iter (fun row -> Array.fill row 0 (Instance.nscenarios inst) 0.) losses;
  let f0 = inst.Instance.flows.(0) in
  check_float ~msg:"beta 0.9 above observed mass -> 1.0" 1.0
    (Metrics.flow_loss_var inst losses f0 ~beta:0.9);
  check_float ~msg:"beta 0.8 within observed mass -> 0" 0.
    (Metrics.flow_loss_var inst losses f0 ~beta:0.8);
  check_float ~msg:"PercLoss hi saturates" 1.0
    (Metrics.perc_loss inst losses ~cls:0);
  check_float ~msg:"PercLoss lo unaffected" 0.
    (Metrics.perc_loss inst losses ~cls:1);
  (* zero-demand flow 3 (class lo, pair 1) stays ignored even under
     partial enumeration *)
  Array.fill losses.(3) 0 (Instance.nscenarios inst) 0.9;
  check_float ~msg:"zero-demand flow ignored" 0.
    (Metrics.perc_loss inst losses ~cls:1)

let test_beta_one_full_enumeration () =
  (* beta = 1.0 over the full (mass-1) enumeration: the VaR is the
     worst observed loss, not the conservative 1.0 *)
  let inst = make_inst () in
  let losses = Instance.alloc_losses inst in
  Array.iter (fun row -> Array.fill row 0 (Instance.nscenarios inst) 0.) losses;
  let f0 = inst.Instance.flows.(0) in
  Array.iter
    (fun (s : FM.scenario) ->
      losses.(0).(s.FM.sid) <- (if s.FM.edge_alive.(0) then 0. else 0.4))
    inst.Instance.scenarios;
  check_float ~msg:"beta 1.0 = max observed loss" 0.4
    (Metrics.flow_loss_var inst losses f0 ~beta:1.0);
  let at_one =
    Instance.with_classes inst
      (Array.map (fun (c : Instance.cls) -> { c with Instance.beta = 1.0 })
         inst.Instance.classes)
  in
  check_float ~msg:"PercLoss at class target 1.0" 0.4
    (Metrics.perc_loss at_one losses ~cls:0)

let test_single_scenario_degenerate () =
  (* one scenario (all-alive, mass 0.729): the percentile either falls
     entirely inside that scenario or entirely outside the observed
     mass, with the boundary beta = 0.729 counting as inside *)
  let inst = make_inst ~max_scenarios:1 () in
  Alcotest.(check int) "one scenario" 1 (Instance.nscenarios inst);
  let losses = Instance.alloc_losses inst in
  Array.iter (fun row -> Array.fill row 0 1 0.) losses;
  losses.(0).(0) <- 0.25;
  let f0 = inst.Instance.flows.(0) in
  check_float ~msg:"beta below mass -> scenario loss" 0.25
    (Metrics.flow_loss_var inst losses f0 ~beta:0.7);
  check_float ~msg:"boundary beta = mass -> scenario loss" 0.25
    (Metrics.flow_loss_var inst losses f0 ~beta:0.729);
  check_float ~msg:"beta above mass -> 1.0" 1.0
    (Metrics.flow_loss_var inst losses f0 ~beta:0.8)

let test_scen_loss_fully_disconnected () =
  (* in the scenario where both tunnel edges are dead every flow is
     disconnected: the connected-only ScenLoss (the paper's default)
     is an empty max = 0, while including disconnected flows reports
     their full loss *)
  let inst = make_inst () in
  let losses = Instance.alloc_losses inst in
  Array.iter (fun row -> Array.fill row 0 (Instance.nscenarios inst) 0.) losses;
  let sid =
    let found = ref (-1) in
    Array.iter
      (fun (s : FM.scenario) ->
        if !found < 0 && (not s.FM.edge_alive.(0)) && not s.FM.edge_alive.(1)
        then found := s.FM.sid)
      inst.Instance.scenarios;
    !found
  in
  if sid < 0 then Alcotest.fail "no double-failure scenario enumerated";
  Array.iter
    (fun (f : Instance.flow) ->
      if Instance.flow_connected inst f sid then
        Alcotest.failf "flow %d unexpectedly connected in scenario %d"
          f.Instance.fid sid)
    inst.Instance.flows;
  losses.(0).(sid) <- 1.0;
  losses.(1).(sid) <- 1.0;
  check_float ~msg:"connected-only over no flows" 0.
    (Metrics.scen_loss inst losses ~sid)

let () =
  Alcotest.run "flexile_metrics"
    [
      ( "metrics",
        [
          quick "flow VaR / CVaR" test_flow_var;
          quick "PercLoss over flows" test_perc_loss_max_over_flows;
          quick "ScenLoss" test_scen_loss;
          quick "weighted penalty" test_weighted_penalty;
          quick "flow VaR CDF" test_flow_var_cdf;
          quick "demand_in" test_demand_in;
        ] );
      ( "edge-cases",
        [
          quick "unenumerated mass is worst loss"
            test_unenumerated_mass_is_worst_loss;
          quick "beta = 1.0" test_beta_one_full_enumeration;
          quick "single-scenario percentiles" test_single_scenario_degenerate;
          quick "ScenLoss fully disconnected" test_scen_loss_fully_disconnected;
        ] );
    ]
