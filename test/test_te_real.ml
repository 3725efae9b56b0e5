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
  let p0 = Metrics.perc_loss inst first.Flexile_offline.losses ~cls:0 in
  let pb = Metrics.perc_loss inst scenbest ~cls:0 in
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
  let fx = Metrics.perc_loss inst r.Flexile_scheme.losses ~cls:0 in
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
      let hi = Metrics.perc_loss inst losses ~cls:0 in
      let lo = Metrics.perc_loss inst losses ~cls:1 in
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
  let ip_perc = Metrics.perc_loss inst ip.Ip_direct.losses ~cls:0 in
  let fx = Flexile_scheme.run inst in
  let fx_perc = Metrics.perc_loss inst fx.Flexile_scheme.losses ~cls:0 in
  if fx_perc < ip_perc -. 1e-4 then
    Alcotest.failf "Flexile %.4f beats the proven optimum %.4f?!" fx_perc ip_perc;
  if fx_perc > ip_perc +. 0.05 then
    Alcotest.failf "Flexile %.4f far from optimal %.4f on a tiny instance"
      fx_perc ip_perc

(* Sprint with two classes, 30 scenarios and 40 pairs needs no added
   capacity at zero PercLoss.  A depth-first search without an
   incumbent needed 1,954 nodes to prove it; the repair heuristic finds
   the plan the root relaxation's own routing carries, at the
   relaxation's bound, so the proof needs the root alone. *)
let test_augment_repair_heuristic () =
  let options =
    {
      Flexile_core.Builder.default_options with
      Flexile_core.Builder.max_scenarios = 30;
      max_pairs = 40;
    }
  in
  let inst = Flexile_core.Builder.of_name ~options ~two_classes:true "Sprint" in
  let r = Augment.min_cost ~mode:`Per_flow ~perc_limit:[| 0.; 0. |] inst in
  Alcotest.(check bool) "proven optimal" true (r.Augment.status = Flexile_lp.Mip.Optimal);
  Alcotest.(check int) "at the root" 1 r.Augment.nodes;
  Alcotest.(check (float 1e-9)) "no added capacity" 0. r.Augment.cost

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

(* ---------- golden builders ----------

   Every LP builder's result on seeded small instances, pinned as the
   MD5 of its values printed with %h (exact hex floats), next to the
   simplex pivots it spent.  Refactors of how the builders lay out
   variables and rows must leave all of it bit-identical: only
   variable and row order reach the solver, so a reordering shows up
   here as a changed pivot count or a changed digest. *)

let golden_options =
  {
    Flexile_core.Builder.default_options with
    Flexile_core.Builder.max_scenarios = 10;
    max_pairs = 8;
  }

let golden_sprint () = Flexile_core.Builder.of_name ~options:golden_options "Sprint"

let golden_sprint2 () =
  Flexile_core.Builder.of_name ~options:golden_options ~two_classes:true "Sprint"

let golden_sprint2_tiny () =
  Flexile_core.Builder.of_name
    ~options:{ golden_options with Flexile_core.Builder.max_scenarios = 6; max_pairs = 4 }
    ~two_classes:true "Sprint"

let golden_ibm () = Flexile_core.Builder.of_name ~options:golden_options "IBM"

let hex_digest floats =
  Digest.to_hex
    (Digest.string (String.concat " " (List.map (Printf.sprintf "%h") floats)))

let flat2 a = List.concat_map Array.to_list (Array.to_list a)
let flat3 a = List.concat_map flat2 (Array.to_list a)

(* [f] returns a headline value and the full list of result values *)
let pin f =
  let module Trace = Flexile_util.Trace in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let before = Trace.value_by_name "simplex.iterations" in
  let head, values = f () in
  let iters = Trace.value_by_name "simplex.iterations" - before in
  Printf.sprintf "iters=%d head=%h md5=%s" iters head (hex_digest values)

let bool_float b = if b then 1. else 0.

let teavar inst () =
  let r = Teavar.run ~jobs:1 inst in
  ( r.Teavar.cvar,
    (float_of_int r.Teavar.rounds :: flat2 r.Teavar.losses) @ flat2 r.Teavar.allocation )

let cvar_flow (run : ?jobs:int -> Instance.t -> Cvar_flow.result) inst () =
  let r = run ~jobs:1 inst in
  ( r.Cvar_flow.max_flow_cvar,
    float_of_int r.Cvar_flow.rounds :: flat2 r.Cvar_flow.losses )

let ffc inst () =
  let r = Ffc.run ~k:1 ~jobs:1 inst in
  ( Array.fold_left ( +. ) 0. r.Ffc.granted,
    flat2 r.Ffc.losses @ Array.to_list r.Ffc.granted @ flat2 r.Ffc.allocation )

let ip_budget = 60

let ip_direct inst () =
  let r = Ip_direct.solve ~node_limit:ip_budget ~jobs:1 inst in
  ( r.Ip_direct.penalty,
    r.Ip_direct.bound :: bool_float r.Ip_direct.optimal :: flat2 r.Ip_direct.losses )

let augment mode inst () =
  let perc_limit = Array.map (fun _ -> 0.) inst.Instance.classes in
  let r = Augment.min_cost ~node_limit:ip_budget ~mode ~perc_limit inst in
  ( r.Augment.cost,
    bool_float (r.Augment.status = Flexile_lp.Mip.Optimal)
    :: Array.to_list r.Augment.added )

let lower_bound inst () =
  let losses = Lower_bound.isolated_losses inst in
  (Array.fold_left (fun a row -> Array.fold_left ( +. ) a row) 0. losses, flat2 losses)

let mlu inst () =
  let tunnels = inst.Instance.tunnels.(0) in
  let demands = Array.map (fun (f : Instance.flow) -> f.Instance.demand) (Instance.flows_of_class inst 0) in
  let mu = Mlu.min_mlu ~graph:inst.Instance.graph ~tunnels ~demands in
  (mu, [ mu ])

(* the model losses are computed before the pinned call *)
let reconstruct inst =
  let model_losses = Scenbest.run ~jobs:1 inst in
  fun () ->
    let values =
      List.concat_map
        (fun sid ->
          flat3 (Flexile_emu.Emulator.reconstruct_allocation inst ~sid ~model_losses))
        (List.init (Instance.nscenarios inst) Fun.id)
    in
    (List.fold_left ( +. ) 0. values, values)

let maxmin inst () =
  let order = List.init (Array.length inst.Instance.classes) Fun.id in
  let values =
    List.concat_map
      (fun sid ->
        Scen_lp.maxmin_losses inst ~sid ~class_order:order ()
        |> List.sort compare
        |> List.concat_map (fun (fid, l) -> [ float_of_int fid; l ]))
      (List.init (Instance.nscenarios inst) Fun.id)
  in
  (List.fold_left ( +. ) 0. values, values)

(* [iterations] past the starting point's sweep reach master plans
   with non-critical pairs *)
let offline_with ~iterations ~gamma inst () =
  let config =
    {
      Flexile_offline.default_config with
      Flexile_offline.max_iterations = iterations;
      gamma;
      jobs = 1;
    }
  in
  let r = Flexile_offline.solve ~config inst in
  let b = r.Flexile_offline.best in
  ( b.Flexile_offline.penalty,
    r.Flexile_offline.lower_bound
    :: float_of_int r.Flexile_offline.subproblems_solved
    :: List.concat_map
         (fun (it : Flexile_offline.iterate) ->
           it.Flexile_offline.penalty
           :: flat2 it.Flexile_offline.losses
           @ List.map bool_float (flat2 it.Flexile_offline.z))
         r.Flexile_offline.iterates )

let offline = offline_with ~iterations:1 ~gamma:None

let drift_sprint () =
  Flexile_core.Builder.of_name
    ~options:{ golden_options with Flexile_core.Builder.scenario_mix = "independent,drift" }
    "Sprint"

let drift_ibm2 () =
  Flexile_core.Builder.of_name
    ~options:{ golden_options with Flexile_core.Builder.scenario_mix = "independent,drift" }
    ~two_classes:true "IBM"

let golden_cases =
  [
    ("teavar fig1", teavar, Flexile_core.Builder.fig1,
     "iters=11 head=0x1.07a0f9096bb99p-1 md5=3b475659cbb6c035a4e1f011761c6352");
    ("teavar sprint", teavar, golden_sprint,
     "iters=16 head=0x1.20c5b66b4017ap-2 md5=f2b7983ae6c379af3d2b6cd8b7711d7f");
    ("cvar-flow-st fig1", cvar_flow Cvar_flow.run_static, Flexile_core.Builder.fig1,
     "iters=13 head=0x1.055b01ae55e94p-1 md5=3b03f4c43e59089d7fb992c9a1222a63");
    ("cvar-flow-st sprint", cvar_flow Cvar_flow.run_static, golden_sprint,
     "iters=25 head=0x1.20eaace8ffff3p-2 md5=0e49784d936ce55ab84db07471112aa8");
    ("cvar-flow-ad fig1", cvar_flow Cvar_flow.run_adaptive, Flexile_core.Builder.fig1,
     "iters=23 head=0x1.055b01ae55e95p-1 md5=fa8920156e8c1d82f670984cfb9f9833");
    ("cvar-flow-ad sprint", cvar_flow Cvar_flow.run_adaptive, golden_sprint,
     "iters=91 head=0x1.20eaace8ffff3p-2 md5=50aa955dbfb33a77c72840a9644a96b9");
    ("ffc fig1", ffc, Flexile_core.Builder.fig1,
     "iters=8 head=0x1p+0 md5=6cf5dfb2e81ad43d71af70858f909423");
    ("ffc sprint", ffc, golden_sprint,
     "iters=6 head=0x0p+0 md5=08d34beb89090d46396358478d956d4a");
    ("ip-direct fig1", ip_direct, Flexile_core.Builder.fig1,
     "iters=125 head=0x1.0624dd2f1a9fcp-11 md5=f86d5106aefe94caf5be7fb8eab87a69");
    ("ip-direct sprint two-class", ip_direct, golden_sprint2_tiny,
     "iters=4112 head=0x0p+0 md5=3dfec4d9b813e19467dfb568c06b76e1");
    ("augment common fig1", augment `Common, Flexile_core.Builder.fig1,
     "iters=175 head=0x1p+1 md5=b160aa762a9adf477a3eac8304b7da6b");
    ("augment per-flow fig1", augment `Per_flow, Flexile_core.Builder.fig1,
     "iters=50 head=0x1.1f28p-45 md5=418d2c7d1dd2a2376c431492ce75df87");
    ("augment common sprint", augment `Common, golden_sprint,
     "iters=92 head=0x0p+0 md5=ab0e53a138dbb80f3f38390b2562eaf4");
    ("augment per-flow sprint", augment `Per_flow, golden_sprint,
     "iters=158 head=0x0p+0 md5=ab0e53a138dbb80f3f38390b2562eaf4");
    ("lower-bound fig1", lower_bound, Flexile_core.Builder.fig1,
     "iters=22 head=0x1.8p+2 md5=6846322037e3d5d907116ef4a0afeb42");
    ("lower-bound ibm", lower_bound, golden_ibm,
     "iters=158 head=0x1p+0 md5=6bed37f6b604e2a37a5102304bd23b12");
    ("mlu sprint", mlu, golden_sprint,
     "iters=21 head=0x1.03a02e51af01fp-1 md5=5ce7957016f4488e28cd9b09036e7e11");
    ("mlu ibm", mlu, golden_ibm,
     "iters=20 head=0x1.4919d1f47516bp-1 md5=2da1397f17eddd8837b5aa619bf5aafa");
    ("reconstruct fig1", reconstruct, Flexile_core.Builder.fig1,
     "iters=24 head=0x1.ffffd60e94ee3p+2 md5=f68a3ce3b162ca7d3139857cda103b6b");
    ("reconstruct sprint two-class", reconstruct, golden_sprint2,
     "iters=170 head=0x1.c1b0955629b93p+4 md5=b8ca4342f56dac6d84280c9e7c132b7d");
    ("maxmin fig1", maxmin, Flexile_core.Builder.fig1,
     "iters=18 head=0x1p+4 md5=f13c91a7ecff1a999b2e26c84b8464ef");
    ("maxmin sprint two-class", maxmin, golden_sprint2,
     "iters=56 head=0x1.2e8p+10 md5=985c50868417e6cc14f77969f69e6fab");
    ("offline fig1", offline, Flexile_core.Builder.fig1,
     "iters=65 head=0x1p-1 md5=5f4e5ace552fbd881ec8c2c2b31a9c17");
    ("offline sprint two-class", offline, golden_sprint2,
     "iters=232 head=0x0p+0 md5=cd47c95fd65bcf4184d43e98145ac700");
    ("maxmin sprint drift", maxmin, drift_sprint,
     "iters=28 head=0x1.18p+8 md5=9a624536cba35ae39186dc7d53657e01");
    ("offline sprint drift", offline, drift_sprint,
     "iters=118 head=0x0p+0 md5=049143dfdceb4be08a69e22e7a0e54bb");
    ("offline fig1 gamma", offline_with ~iterations:3 ~gamma:(Some 0.05),
     Flexile_core.Builder.fig1,
     "iters=153 head=0x1.cccccccccccccp-2 md5=f6427a1ff0e24fb513a0556fbb1035db");
    ("offline ibm two-class drift", offline_with ~iterations:3 ~gamma:None, drift_ibm2,
     "iters=307 head=0x1p+0 md5=d4675a703f615b140ee8a6ce04694968");
  ]

let golden_tests =
  List.map
    (fun (name, builder, instance, expected) ->
      quick name (fun () ->
          (* the instance is built outside the pinned window *)
          let inst = instance () in
          Alcotest.(check string) name expected (pin (builder inst))))
    golden_cases

(* ---------- cutting-plane restarts ----------

   Row generation on IBM (40 scenarios, 60 pairs): each round appends the
   violated rows to the model and restarts from the last optimal basis
   with the new rows' slacks basic.  Its rounds, the objective's bits,
   the pivots and the refactorizations (one per restart, plus those the
   eta file forces) pin that restart. *)

let row_gen_pin run =
  let module Trace = Flexile_util.Trace in
  let names = [ "simplex.iterations"; "simplex.refactorizations" ] in
  let inst = Flexile_core.Builder.of_name ~options:small_options "IBM" in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let before = List.map Trace.value_by_name names in
  let rounds, obj = run inst in
  match List.map2 (fun n b -> Trace.value_by_name n - b) names before with
  | [ iters; refactors ] ->
      Printf.sprintf "rounds=%d obj=%Lx iters=%d refactors=%d" rounds
        (Int64.bits_of_float obj) iters refactors
  | _ -> assert false

let row_gen_cvar (run : ?jobs:int -> Instance.t -> Cvar_flow.result) inst =
  let r = run ~jobs:1 inst in
  (r.Cvar_flow.rounds, r.Cvar_flow.max_flow_cvar)

let row_gen_cases =
  [
    ( "teavar ibm",
      (fun inst ->
        let r = Teavar.run ~jobs:1 inst in
        (r.Teavar.rounds, r.Teavar.cvar)),
      "rounds=5 obj=3fef397afbcbd007 iters=563 refactors=10" );
    ( "cvar-flow-st ibm",
      row_gen_cvar Cvar_flow.run_static,
      "rounds=2 obj=3fee1627df6ce0b5 iters=945 refactors=10" );
    ( "cvar-flow-ad ibm",
      row_gen_cvar Cvar_flow.run_adaptive,
      "rounds=4 obj=3fee15e3d5d3a876 iters=2871 refactors=10" );
  ]

let row_gen_tests =
  List.map
    (fun (name, run, expected) ->
      quick name (fun () ->
          Alcotest.(check string) name expected (row_gen_pin run)))
    row_gen_cases

(* ---------- B&B node LPs that break their own bounds ---------- *)

(* The offline solve of B4 at the CLI's defaults: some Benders-master
   node LPs end "optimal" at a point off their bounds (a basic binary
   at 1.71 under upper bound 1).  Branch and bound drops those nodes,
   as it drops a cut-short LP, and the best penalty keeps its bits. *)
let test_mip_drops_broken_nodes () =
  let module Trace = Flexile_util.Trace in
  let inst = Flexile_core.Builder.of_name "B4" in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let before = Trace.value_by_name "mip.nodes_dropped" in
  let r =
    Flexile_offline.solve
      ~config:{ Flexile_offline.default_config with Flexile_offline.jobs = 1 }
      inst
  in
  Alcotest.(check string) "best penalty bits" "0x1.b479e416cae7fp-4"
    (Printf.sprintf "%h" r.Flexile_offline.best.Flexile_offline.penalty);
  if Trace.value_by_name "mip.nodes_dropped" - before <= 0 then
    Alcotest.fail "no node LP was dropped"

(* ---------- demand drift in the static-allocation schemes ---------- *)

(* The same instance with every demand factor 1. *)
let with_unit_factors inst =
  let nk = Array.length inst.Instance.classes in
  let demands =
    Array.init nk (fun k ->
        Array.map (fun (f : Instance.flow) -> f.Instance.demand) (Instance.flows_of_class inst k))
  in
  Instance.make ~graph:inst.Instance.graph ~classes:inst.Instance.classes
    ~pairs:inst.Instance.pairs ~tunnels:inst.Instance.tunnels ~demands
    ~demand_factors:
      (Array.make_matrix (Instance.nscenarios inst) (Instance.nflows inst) 1.)
    ~scenarios:inst.Instance.scenarios ()

let static_schemes =
  [
    ("teavar", teavar);
    ("cvar-flow-st", cvar_flow Cvar_flow.run_static);
    ("cvar-flow-ad", cvar_flow Cvar_flow.run_adaptive);
    ("ffc", ffc);
  ]

let test_unit_factors_identical () =
  List.iter
    (fun (name, builder) ->
      List.iter
        (fun instance ->
          let inst = instance () in
          let plain = pin (builder inst) in
          Alcotest.(check string) name plain (pin (builder (with_unit_factors inst))))
        [ Flexile_core.Builder.fig1; golden_sprint ])
    static_schemes

(* Losses recomputed from an allocation (pair -> tunnel): the flow's
   scenario demand against what its alive tunnels carry, capped by
   [grant] *)
let check_recomputed name inst losses ~routing ~grant =
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then
        for sid = 0 to Instance.nscenarios inst - 1 do
          let d = Instance.demand_in inst f sid in
          let alloc = (routing sid).(f.Instance.pair) in
          let carried =
            Array.fold_left
              (fun a t -> a +. alloc.(t))
              0.
              inst.Instance.alive_tunnels.(sid).(0).(f.Instance.pair)
          in
          let expected =
            if d <= 0. then 0.
            else Float.max 0. (Float.min 1. (1. -. (Float.min (grant f) carried /. d)))
          in
          let got = losses.(f.Instance.fid).(sid) in
          if Float.abs (got -. expected) > 1e-9 then
            Alcotest.failf "%s: flow %d scenario %d loss %h, recomputed %h" name
              f.Instance.fid sid got expected
        done)
    inst.Instance.flows

let test_drift_losses_recomputed () =
  let inst = drift_sprint () in
  let drifted =
    match inst.Instance.demand_factors with
    | Some df -> Array.exists (Array.exists (fun v -> v <> 1.)) df
    | None -> false
  in
  if not drifted then Alcotest.fail "the drift mix carries no demand factor other than 1";
  let tv = Teavar.run ~jobs:1 inst in
  check_recomputed "teavar" inst tv.Teavar.losses
    ~routing:(fun _ -> tv.Teavar.allocation)
    ~grant:(fun _ -> infinity);
  let st = Cvar_flow.run_static ~jobs:1 inst in
  check_recomputed "cvar-flow-st" inst st.Cvar_flow.losses
    ~routing:(fun _ -> st.Cvar_flow.allocation.(0))
    ~grant:(fun _ -> infinity);
  let ad = Cvar_flow.run_adaptive ~jobs:1 inst in
  check_recomputed "cvar-flow-ad" inst ad.Cvar_flow.losses
    ~routing:(fun sid -> ad.Cvar_flow.allocation.(sid))
    ~grant:(fun _ -> infinity);
  (* without failure protection FFC grants a positive share *)
  let ffc = Ffc.run ~k:0 ~jobs:1 inst in
  if Array.for_all (fun g -> g <= 0.) ffc.Ffc.granted then Alcotest.fail "FFC granted nothing";
  check_recomputed "ffc" inst ffc.Ffc.losses
    ~routing:(fun _ -> ffc.Ffc.allocation)
    ~grant:(fun f -> ffc.Ffc.granted.(f.Instance.fid))

let test_teavar_scheme_on_drift () =
  let inst = drift_sprint () in
  losses_in_range inst (Flexile_core.Schemes.run Flexile_core.Schemes.Teavar inst)

(* ---------- full-row oracle for the CVaR LPs ----------

   TeaVar and Cvar-Flow write one loss row and one [s] variable per
   scenario class and generate the rows lazily.  The oracle writes the
   same LPs the long way: one [s] per (flow, scenario) for Cvar-Flow,
   one per scenario for TeaVar, weighted by the scenario's own
   probability, and every loss row with demand up front, solved once.
   Row generation stops at 1e-7 violations, so a scheme's optimum may
   sit just below the oracle's, never above it. *)

module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex

let prob inst q = inst.Instance.scenarios.(q).Flexile_failure.Failure_model.prob

(* s + alpha + sum of the flow's tunnels alive in [q] / d >= 1 *)
let loss_row m inst (x : Routing.vars) (f : Instance.flow) q ~s ~alpha =
  let d = Instance.demand_in inst f q in
  if d > 0. then
    let xs = x.(f.Instance.cls).(f.Instance.pair) in
    let tunnels = inst.Instance.alive_tunnels.(q).(f.Instance.cls).(f.Instance.pair) in
    ignore
      (Lp_model.add_row m Lp_model.Ge 1.
         ((s, 1.) :: (alpha, 1.)
         :: List.map (fun t -> (xs.(t), 1. /. d)) (Array.to_list tunnels)))

let full_teavar inst =
  let beta = inst.Instance.classes.(0).Instance.beta in
  let m = Lp_model.create () in
  let alpha = Lp_model.add_var m ~obj:1. () in
  let s =
    Array.init (Instance.nscenarios inst) (fun q ->
        Lp_model.add_var m ~obj:(prob inst q /. (1. -. beta)) ())
  in
  let x = Routing.vars m inst in
  ignore (Routing.capacity_rows m inst x);
  Array.iteri
    (fun q s -> Array.iter (fun f -> loss_row m inst x f q ~s ~alpha) (Instance.flows_of_class inst 0))
    s;
  m

let full_cvar_flow ~adaptive inst =
  let beta = inst.Instance.classes.(0).Instance.beta in
  let nq = Instance.nscenarios inst in
  let flows =
    List.filter (fun (f : Instance.flow) -> f.Instance.demand > 0.)
      (Array.to_list (Instance.flows_of_class inst 0))
  in
  let m = Lp_model.create () in
  let theta = Lp_model.add_var m ~obj:1. () in
  let eps = 1e-3 /. float_of_int (max 1 (List.length flows)) in
  let x =
    if adaptive then Array.init nq (fun q -> Routing.vars ~sid:q m inst)
    else [| Routing.vars m inst |]
  in
  Array.iteri
    (fun c xc -> ignore (Routing.capacity_rows ?sid:(if adaptive then Some c else None) m inst xc))
    x;
  List.iter
    (fun f ->
      let alpha = Lp_model.add_var m () in
      let s = Array.init nq (fun _ -> Lp_model.add_var m ()) in
      let theta_f = Lp_model.add_var m ~obj:eps () in
      ignore
        (Lp_model.add_row m Lp_model.Ge 0.
           ((theta_f, 1.) :: (alpha, -1.)
           :: List.init nq (fun q -> (s.(q), -.prob inst q /. (1. -. beta)))));
      ignore (Lp_model.add_row m Lp_model.Ge 0. [ (theta, 1.); (theta_f, -1.) ]);
      Array.iteri
        (fun q s -> loss_row m inst x.(if adaptive then q else 0) f q ~s ~alpha)
        s)
    flows;
  m

let oracle_instance mix name () =
  Flexile_core.Builder.of_name
    ~options:{ golden_options with Flexile_core.Builder.scenario_mix = mix }
    name

let oracle_cases =
  ("fig1", Flexile_core.Builder.fig1)
  :: List.concat_map
       (fun name ->
         List.map
           (fun mix -> (String.lowercase_ascii name ^ " " ^ mix, oracle_instance mix name))
           [ "independent"; "srlg,partial"; "independent,drift" ])
       [ "Sprint"; "IBM" ]

(* The CVaR at [beta] of a per-scenario loss, as the LPs write it:
   the least alpha >= 0 + sum_q p_q (loss q - alpha)^+ / (1 - beta),
   reached at 0 or at one of the losses. *)
let cvar inst ~beta loss =
  let qs = List.init (Instance.nscenarios inst) Fun.id in
  let value a =
    a
    +. List.fold_left (fun acc q -> acc +. (prob inst q *. Float.max 0. (loss q -. a))) 0. qs
       /. (1. -. beta)
  in
  List.fold_left (fun acc q -> Float.min acc (value (Float.max 0. (loss q)))) (value 0.) qs

(* Each scheme's objective against the oracle's optimum, and the
   oracle's objective at the scheme's returned losses, which a
   feasible allocation cannot take below the optimum. *)
let test_full_row_oracle instance () =
  let inst = instance () in
  let beta = inst.Instance.classes.(0).Instance.beta in
  let flows =
    List.filter (fun (f : Instance.flow) -> f.Instance.demand > 0.)
      (Array.to_list (Instance.flows_of_class inst 0))
  in
  let check name ~got ~achieved full =
    let sol = Simplex.solve full in
    if sol.Simplex.status <> Simplex.Optimal then Alcotest.failf "%s: oracle LP did not solve" name;
    let opt = sol.Simplex.obj in
    if got > opt +. 1e-9 || got < opt -. 1e-5 then
      Alcotest.failf "%s: objective %.12g, full-row optimum %.12g" name got opt;
    if achieved > opt +. 1e-5 then
      Alcotest.failf "%s: losses achieve %.12g, full-row optimum %.12g" name achieved opt
  in
  let tv = Teavar.run ~jobs:1 inst in
  let scen_loss q =
    List.fold_left (fun acc (f : Instance.flow) -> Float.max acc tv.Teavar.losses.(f.Instance.fid).(q)) 0. flows
  in
  check "teavar" ~got:tv.Teavar.cvar ~achieved:(cvar inst ~beta scen_loss) (full_teavar inst);
  let eps = 1e-3 /. float_of_int (max 1 (List.length flows)) in
  let flow_cvar (r : Cvar_flow.result) =
    let per_flow =
      List.map (fun (f : Instance.flow) -> cvar inst ~beta (fun q -> r.Cvar_flow.losses.(f.Instance.fid).(q))) flows
    in
    List.fold_left Float.max 0. per_flow +. (eps *. List.fold_left ( +. ) 0. per_flow)
  in
  List.iter
    (fun (name, adaptive) ->
      let run = if adaptive then Cvar_flow.run_adaptive else Cvar_flow.run_static in
      let r = run ~jobs:1 inst in
      check name ~got:r.Cvar_flow.max_flow_cvar ~achieved:(flow_cvar r) (full_cvar_flow ~adaptive inst))
    [ ("cvar-flow-st", false); ("cvar-flow-ad", true) ]

(* Cvar-Flow-St on the IBM srlg,partial mix: a row-generation restart's
   dual simplex ends primal feasible but, under exactly recomputed
   reduced costs, drifted out of dual feasibility.  Primal phase 2
   finishes from that basis; no restart falls back to a cold solve, and
   the answer is the reference penalty. *)
let test_drift_cleanup () =
  let module Trace = Flexile_util.Trace in
  let inst =
    Flexile_core.Builder.of_name
      ~options:
        { Flexile_core.Builder.default_options with Flexile_core.Builder.scenario_mix = "srlg,partial" }
      "IBM"
  in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let names = [ "health.dual_guard_trips"; "simplex.warm_fallbacks" ] in
  let before = List.map Trace.value_by_name names in
  let r = Cvar_flow.run_static ~jobs:1 inst in
  (match List.map2 (fun n b -> Trace.value_by_name n - b) names before with
  | [ trips; fallbacks ] ->
      if trips < 1 then Alcotest.fail "no restart tripped the dual feasibility guard";
      Alcotest.(check int) "warm fallbacks" 0 fallbacks
  | _ -> assert false);
  Alcotest.(check (float 1e-9))
    "penalty" 0.72402278236039286
    (Metrics.total_weighted_penalty inst r.Cvar_flow.losses)

let () =
  Alcotest.run "flexile_te_real"
    [
      ( "instances",
        [
          quick "instance invariants" test_instance_invariants;
          quick "augment: repair heuristic proves Sprint" test_augment_repair_heuristic;
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
      ("golden builders", golden_tests);
      ("row-gen pin", row_gen_tests);
      ("mip", [ quick "B4 drops node LPs off their bounds" test_mip_drops_broken_nodes ]);
      ( "demand drift",
        [
          quick "unit factors change nothing" test_unit_factors_identical;
          quick "losses recomputed from the allocation" test_drift_losses_recomputed;
          quick "teavar scheme runs on a drift mix" test_teavar_scheme_on_drift;
        ] );
      ( "cvar oracle",
        List.map (fun (name, instance) -> quick name (test_full_row_oracle instance)) oracle_cases
        @ [ quick "drift cleanup keeps the warm basis" test_drift_cleanup ] );
    ]
