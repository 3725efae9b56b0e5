(* Integration tests on generated catalog topologies: instance
   construction invariants, scheme sanity (losses in range, Flexile no
   worse than baselines), and the online phase's critical-flow
   guarantees. *)

open Flexile_te

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let small_options =
  {
    Flexile_core.Builder.default_options with
    Flexile_core.Builder.max_scenarios = 40;
    max_pairs = 60;
  }

let sprint = lazy (Flexile_core.Builder.of_name ~options:small_options "Sprint")
let sprint2 =
  lazy (Flexile_core.Builder.of_name ~options:small_options ~two_classes:true "Sprint")

let test_instance_invariants () =
  let inst = Lazy.force sprint in
  (* scenario masses within (0,1], sorted nonincreasing, disjoint *)
  let prev = ref infinity in
  Array.iter
    (fun (s : Flexile_failure.Failure_model.scenario) ->
      let p = s.Flexile_failure.Failure_model.prob in
      if p <= 0. || p > 1. then Alcotest.fail "bad scenario probability";
      if p > !prev +. 1e-12 then Alcotest.fail "scenarios not sorted";
      prev := p)
    inst.Instance.scenarios;
  if Flexile_failure.Failure_model.coverage inst.Instance.scenarios > 1. +. 1e-9
  then Alcotest.fail "coverage above 1";
  (* each tunnel connects its pair's endpoints *)
  Array.iteri
    (fun _k per_pair ->
      Array.iteri
        (fun i ts ->
          let u, v = inst.Instance.pairs.(i) in
          Array.iter
            (fun (t : Flexile_net.Tunnels.t) ->
              let ns = t.Flexile_net.Tunnels.nodes in
              if ns.(0) <> u || ns.(Array.length ns - 1) <> v then
                Alcotest.fail "tunnel endpoints mismatch")
            ts)
        per_pair)
    inst.Instance.tunnels;
  (* beta is feasible: every flow connected in >= beta mass *)
  let beta = inst.Instance.classes.(0).Instance.beta in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. && Instance.connected_mass inst f < beta then
        Alcotest.fail "beta above a flow's connected mass")
    inst.Instance.flows

let losses_in_range inst losses =
  Array.iter
    (fun (f : Instance.flow) ->
      Array.iter
        (fun l ->
          if l < -1e-9 || l > 1. +. 1e-9 then
            Alcotest.failf "loss %f out of range" l)
        losses.(f.Instance.fid))
    inst.Instance.flows

let test_schemes_sane () =
  let inst = Lazy.force sprint in
  List.iter
    (fun scheme ->
      let losses = Flexile_core.Schemes.run scheme inst in
      losses_in_range inst losses;
      (* disconnected flows must lose everything *)
      Array.iter
        (fun (f : Instance.flow) ->
          for sid = 0 to Instance.nscenarios inst - 1 do
            if
              f.Instance.demand > 0.
              && not (Instance.flow_connected inst f sid)
              && losses.(f.Instance.fid).(sid) < 1. -. 1e-6
            then Alcotest.failf "disconnected flow served (%s)"
                   (Flexile_core.Schemes.name scheme)
          done)
        inst.Instance.flows)
    [
      Flexile_core.Schemes.Smore;
      Flexile_core.Schemes.Flexile;
      Flexile_core.Schemes.Teavar;
      Flexile_core.Schemes.Swan_maxmin;
      Flexile_core.Schemes.Swan_throughput;
    ]

(* Proposition 1 on a real topology: Flexile's starting point is no
   worse than ScenBest's PercLoss, and the final result no worse than
   the starting point. *)
let test_prop1_real () =
  let inst = Lazy.force sprint in
  let off = Flexile_offline.solve inst in
  let first = List.hd off.Flexile_offline.iterates in
  let scenbest = Scenbest.run inst in
  let p0 = Metrics.perc_loss inst first.Flexile_offline.losses ~cls:0 () in
  let pb = Metrics.perc_loss inst scenbest ~cls:0 () in
  if p0 > pb +. 1e-5 then
    Alcotest.failf "starting point %.4f worse than ScenBest %.4f" p0 pb;
  let best = off.Flexile_offline.best.Flexile_offline.penalty in
  if best > first.Flexile_offline.penalty +. 1e-9 then
    Alcotest.fail "best iterate worse than the starting point"

(* Flexile >= lower bound, and its online losses respect the offline
   critical guarantees. *)
let test_flexile_bounds () =
  let inst = Lazy.force sprint in
  let r = Flexile_scheme.run inst in
  let lb = Lower_bound.perc_loss_lower_bound inst ~cls:0 in
  let fx = Metrics.perc_loss inst r.Flexile_scheme.losses ~cls:0 () in
  if fx < lb -. 1e-5 then Alcotest.failf "Flexile %.4f below lower bound %.4f" fx lb;
  let best = r.Flexile_scheme.offline.Flexile_offline.best in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then
        for sid = 0 to Instance.nscenarios inst - 1 do
          if best.Flexile_offline.z.(f.Instance.fid).(sid) then begin
            let online = r.Flexile_scheme.losses.(f.Instance.fid).(sid) in
            let promised = best.Flexile_offline.losses.(f.Instance.fid).(sid) in
            if online > promised +. 1e-4 then
              Alcotest.failf
                "critical flow %d scenario %d: online %.4f > promised %.4f"
                f.Instance.fid sid online promised
          end
        done)
    inst.Instance.flows

let test_two_class_priority () =
  let inst = Lazy.force sprint2 in
  (* high priority must not be worse than low for any priority-aware
     scheme *)
  List.iter
    (fun scheme ->
      let losses = Flexile_core.Schemes.run scheme inst in
      let hi = Metrics.perc_loss inst losses ~cls:0 () in
      let lo = Metrics.perc_loss inst losses ~cls:1 ~beta:0.99 () in
      if hi > lo +. 0.05 then
        Alcotest.failf "%s: high-priority PercLoss %.3f above low %.3f"
          (Flexile_core.Schemes.name scheme) hi lo)
    [
      Flexile_core.Schemes.Flexile;
      Flexile_core.Schemes.Swan_maxmin;
      Flexile_core.Schemes.Scenbest_multi;
    ]

(* The IP is a lower bound for every scheme's achieved penalty on a
   tiny instance, and Flexile converges toward it. *)
let test_ip_reference () =
  let options =
    {
      Flexile_core.Builder.default_options with
      Flexile_core.Builder.max_scenarios = 12;
      max_pairs = 12;
    }
  in
  let inst = Flexile_core.Builder.of_name ~options "Sprint" in
  let ip = Ip_direct.solve inst in
  if not ip.Ip_direct.optimal then Alcotest.fail "IP did not prove optimality";
  let ip_perc = Metrics.perc_loss inst ip.Ip_direct.losses ~cls:0 () in
  let fx = Flexile_scheme.run inst in
  let fx_perc = Metrics.perc_loss inst fx.Flexile_scheme.losses ~cls:0 () in
  if fx_perc < ip_perc -. 1e-4 then
    Alcotest.failf "Flexile %.4f beats the proven optimum %.4f?!" fx_perc ip_perc;
  if fx_perc > ip_perc +. 0.05 then
    Alcotest.failf "Flexile %.4f far from optimal %.4f on a tiny instance"
      fx_perc ip_perc

let test_max_scale_monotone () =
  (* sanity for the Fig 18 search: Flexile sustains at least as much
     low-priority scale as SWAN-Maxmin *)
  let graph = Flexile_net.Catalog.by_name "Sprint" in
  let options = { small_options with Flexile_core.Builder.max_scenarios = 25 } in
  let fx =
    Flexile_core.Max_scale.search ~options ~steps:3
      ~scheme:Flexile_core.Schemes.Flexile ~graph ()
  in
  let mm =
    Flexile_core.Max_scale.search ~options ~steps:3
      ~scheme:Flexile_core.Schemes.Swan_maxmin ~graph ()
  in
  if fx < mm -. 1e-9 then
    Alcotest.failf "Flexile max scale %.2f below SWAN-Maxmin %.2f" fx mm

let () =
  Alcotest.run "flexile_te_real"
    [
      ( "instances",
        [
          quick "instance invariants" test_instance_invariants;
        ] );
      ( "schemes",
        [
          slow "all schemes sane" test_schemes_sane;
          slow "proposition 1 (real topology)" test_prop1_real;
          slow "flexile vs bounds and guarantees" test_flexile_bounds;
          slow "two-class priority ordering" test_two_class_priority;
          slow "ip reference on tiny instance" test_ip_reference;
          slow "max-scale ordering" test_max_scale_monotone;
        ] );
    ]
