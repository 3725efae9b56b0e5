(* A human-readable report renderer whose whole job is terminal
   output, invoked only from the CLI / bench driver. *)
[@@@lint.allow "h1-io"]

open Flexile_te
module Stats = Flexile_util.Stats
module Prng = Flexile_util.Prng

type profile = {
  topos : string list;
  rich_topos : string list;
  ip_topos : string list;
  max_scenarios : int;
  max_pairs : int;
  emu_runs : int;
  cvar_scenarios : int;
  ip_node_limit : int;
  jobs : int;
}

let quick =
  {
    topos = [ "Sprint"; "B4"; "IBM"; "CWIX" ];
    rich_topos = [ "Sprint"; "B4" ];
    ip_topos = [ "Sprint" ];
    max_scenarios = 50;
    max_pairs = 120;
    emu_runs = 3;
    cvar_scenarios = 30;
    ip_node_limit = 200;
    jobs = 0;
  }

let full =
  {
    quick with
    topos = List.map (fun (n, _, _) -> n) Flexile_net.Catalog.table2;
    rich_topos = [ "Sprint"; "B4"; "IBM"; "CWIX"; "Highwinds"; "Quest" ];
    ip_topos = [ "Sprint"; "B4"; "IBM" ];
    max_scenarios = 150;
    max_pairs = 240;
    ip_node_limit = 2000;
  }

let pct x = 100. *. x

let section title =
  Printf.printf "\n==================== %s ====================\n" title

let options_of p ~max_scenarios =
  {
    Builder.default_options with
    Builder.max_scenarios;
    max_pairs = p.max_pairs;
    jobs = p.jobs;
  }

(* Figures share instances and scheme runs (Figs 5/6/9 all exercise
   IBM, for example); memoize both so the harness only pays for each
   (instance, scheme) combination once. *)
(* c2-global-mut: single-domain memo tables keyed by deterministic
   strings; only the figure harness (never worker domains) touches
   them, and cache hits return the identical instance value. *)
let inst_cache : (string, Instance.t) Hashtbl.t =
  (Hashtbl.create 16 [@lint.allow "c2-global-mut"])

let loss_cache : (string, Instance.losses) Hashtbl.t =
  (Hashtbl.create 64 [@lint.allow "c2-global-mut"])

let inst_keys : (Instance.t, string) Hashtbl.t =
  (Hashtbl.create 16 [@lint.allow "c2-global-mut"])

let memo_inst key build =
  match Hashtbl.find_opt inst_cache key with
  | Some i -> i
  | None ->
      let i = build () in
      Hashtbl.replace inst_cache key i;
      Hashtbl.replace inst_keys i key;
      i

let build_single p ?(max_scenarios = p.max_scenarios) name =
  let key = Printf.sprintf "1|%s|%d|%d" name max_scenarios p.max_pairs in
  memo_inst key (fun () ->
      Builder.of_name ~options:(options_of p ~max_scenarios) name)

let build_two p ?(max_scenarios = p.max_scenarios) name =
  let key = Printf.sprintf "2|%s|%d|%d" name max_scenarios p.max_pairs in
  memo_inst key (fun () ->
      Builder.of_name ~options:(options_of p ~max_scenarios) ~two_classes:true
        name)

(* Memoizing scheme runner; falls back to an uncached run for
   instances built outside build_single/build_two.  The cache key
   ignores [jobs]: sweep results are deterministic across job counts
   (see Scenario_engine), so only wall time differs. *)
let run_scheme ?(jobs = 0) scheme inst =
  match Hashtbl.find_opt inst_keys inst with
  | None -> Schemes.run ~jobs scheme inst
  | Some ikey -> (
      let key = Schemes.name scheme ^ "@" ^ ikey in
      match Hashtbl.find_opt loss_cache key with
      | Some l -> l
      | None ->
          let l = Schemes.run ~jobs scheme inst in
          Hashtbl.replace loss_cache key l;
          l)

let perc inst losses k = Metrics.perc_loss inst losses ~cls:k

(* quantile of a CDF given as sorted (value, cumulative) points, over
   scenario mass or over the fraction of flows: the smallest value
   whose cumulative share reaches [mass] (worst case 1.0 when the
   distribution doesn't cover it) *)
let cdf_at cdf mass =
  let rec go = function
    | [] -> 1.0
    | (v, c) :: tl -> if c >= mass -. 1e-12 then v else go tl
  in
  go cdf

let med xs =
  match xs with [] -> nan | _ -> Stats.median (Array.of_list xs)

(* ------------------------------------------------------------------ *)

let motivation () =
  section "Motivation (Figs 1-4, Prop 2): triangle network";
  let inst = Builder.fig1 () in
  let report name losses =
    Printf.printf "  %-14s PercLoss(99%%) = %5.1f%%   per-flow VaR:" name
      (pct (perc inst losses 0));
    Array.iter
      (fun (f : Instance.flow) ->
        Printf.printf " %d->%d: %.1f%%" f.Instance.src f.Instance.dst
          (pct (Metrics.flow_loss_var inst losses f ~beta:0.99)))
      inst.Instance.flows;
    print_newline ()
  in
  report "ScenBest/SMORE" (Scenbest.run inst);
  report "Teavar" (Teavar.run inst).Teavar.losses;
  report "Cvar-Flow-St" (Cvar_flow.run_static inst).Cvar_flow.losses;
  report "Cvar-Flow-Ad" (Cvar_flow.run_adaptive inst).Cvar_flow.losses;
  let fx = Flexile_scheme.run inst in
  report "Flexile" fx.Flexile_scheme.losses;
  Printf.printf
    "  paper: ScenBest/Teavar stuck at 50%%, CVaR variants >= 48.5%%, Flexile 0%%\n"

let fig5 p =
  section "Fig 5: CDF of 99.9%ile flow loss (IBM, single class)";
  let inst = build_single p "IBM" in
  let beta = inst.Instance.classes.(0).Instance.beta in
  Printf.printf "  design target beta = %.6f\n" beta;
  let schemes =
    [
      ("Teavar", run_scheme ~jobs:p.jobs Schemes.Teavar inst);
      ("ScenBest", run_scheme ~jobs:p.jobs Schemes.Smore inst);
      ("Flexile", run_scheme ~jobs:p.jobs Schemes.Flexile inst);
    ]
  in
  Printf.printf "  %-10s" "fraction";
  List.iter (fun (n, _) -> Printf.printf " %10s" n) schemes;
  print_newline ();
  List.iter
    (fun frac ->
      Printf.printf "  %-10.2f" frac;
      List.iter
        (fun (_, losses) ->
          let cdf = Metrics.flow_var_cdf inst losses ~cls:0 ~beta in
          Printf.printf " %9.2f%%" (pct (cdf_at cdf frac)))
        schemes;
      print_newline ())
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
  Printf.printf "  paper shape: Teavar >> ScenBest >> Flexile (= 0 everywhere)\n"

let fig6 p =
  section "Fig 6: per-scenario loss penalty vs ScenBest (IBM)";
  let inst = build_single p "IBM" in
  let baseline = run_scheme ~jobs:p.jobs Schemes.Smore inst in
  let rows =
    [
      ("Flexile", run_scheme ~jobs:p.jobs Schemes.Flexile inst);
      ("Teavar", run_scheme ~jobs:p.jobs Schemes.Teavar inst);
    ]
  in
  Printf.printf "  %-10s %12s %12s %12s %12s\n" "scheme" "@0.9" "@0.99" "@0.999"
    "@0.9999";
  List.iter
    (fun (name, losses) ->
      let cdf = Metrics.scenario_penalty_cdf inst losses ~baseline in
      Printf.printf "  %-10s" name;
      List.iter
        (fun mass -> Printf.printf " %11.2f%%" (pct (cdf_at cdf mass)))
        [ 0.9; 0.99; 0.999; 0.9999 ];
      print_newline ())
    rows;
  Printf.printf
    "  paper shape: Flexile ~0 through 99.9%%, small at 99.99%%; Teavar >= 10%% everywhere\n"

let fig9 p =
  section "Fig 9: emulation testbed (IBM)";
  (* (a) two classes: Flexile vs SWAN-Maxmin *)
  let inst2 = build_two p "IBM" in
  Printf.printf "  (a) two classes, %d flows, %d scenarios\n"
    (Instance.nflows inst2) (Instance.nscenarios inst2);
  let emu_percentiles inst model =
    let seeds =
      List.init p.emu_runs (fun i ->
          Prng.of_string (Printf.sprintf "fig9-run-%d" i))
    in
    List.map
      (fun r ->
        ( Array.init (Array.length inst.Instance.classes) (fun k ->
              perc inst r.Flexile_emu.Emulator.emulated k),
          r ))
      (Flexile_emu.Emulator.emulate ~seeds inst ~model_losses:model)
  in
  let report2 name model =
    let runs = emu_percentiles inst2 model in
    Array.iteri
      (fun k (c : Instance.cls) ->
        let vals = List.map (fun (a, _) -> pct a.(k)) runs in
        Printf.printf
          "    %-14s %-4s priority: median %6.2f%%  min %6.2f%%  max %6.2f%%\n"
          name c.Instance.cname (med vals)
          (List.fold_left Float.min infinity vals)
          (List.fold_left Float.max 0. vals))
      inst2.Instance.classes;
    runs
  in
  let fx2 = run_scheme ~jobs:p.jobs Schemes.Flexile inst2 in
  let runs_fx = report2 "Flexile" fx2 in
  let _ = report2 "SWAN-Maxmin" (run_scheme ~jobs:p.jobs Schemes.Swan_maxmin inst2) in
  (* (b) single class: Flexile vs SMORE vs Teavar *)
  let inst1 = build_single p "IBM" in
  Printf.printf "  (b) single class at beta=%.5f\n"
    inst1.Instance.classes.(0).Instance.beta;
  let report1 name model =
    let runs = emu_percentiles inst1 model in
    let vals = List.map (fun (a, _) -> pct a.(0)) runs in
    Printf.printf "    %-14s median %6.2f%%  min %6.2f%%  max %6.2f%%\n" name
      (med vals)
      (List.fold_left Float.min infinity vals)
      (List.fold_left Float.max 0. vals)
  in
  report1 "Flexile" (run_scheme ~jobs:p.jobs Schemes.Flexile inst1);
  report1 "SMORE" (run_scheme ~jobs:p.jobs Schemes.Smore inst1);
  report1 "Teavar" (run_scheme ~jobs:p.jobs Schemes.Teavar inst1);
  (* (c) discretization gap *)
  Printf.printf "  (c) emulation vs model (Flexile, two classes):\n";
  List.iteri
    (fun i (_, r) ->
      Printf.printf "    run %d: PCC = %.6f, max |emulated - model| = %.2f%%\n"
        (i + 1) r.Flexile_emu.Emulator.pcc
        (pct r.Flexile_emu.Emulator.max_abs_diff))
    runs_fx;
  Printf.printf "  paper: PCC > 0.999 and all diffs < 1.67%%\n"

let fig10 p =
  section "Fig 10: low-priority PercLoss across topologies (two classes)";
  Printf.printf "  %-16s %10s %12s %16s\n" "topology" "Flexile" "SWAN-Maxmin"
    "SWAN-Throughput";
  let fx_all = ref [] and mm_all = ref [] and tp_all = ref [] in
  List.iter
    (fun name ->
      let inst = build_two p name in
      let fx = pct (perc inst (run_scheme ~jobs:p.jobs Schemes.Flexile inst) 1) in
      let mm = pct (perc inst (run_scheme ~jobs:p.jobs Schemes.Swan_maxmin inst) 1) in
      let tp = pct (perc inst (run_scheme ~jobs:p.jobs Schemes.Swan_throughput inst) 1) in
      fx_all := fx :: !fx_all;
      mm_all := mm :: !mm_all;
      tp_all := tp :: !tp_all;
      Printf.printf "  %-16s %9.2f%% %11.2f%% %15.2f%%\n" name fx mm tp)
    p.topos;
  Printf.printf "  medians: Flexile %.1f%%, SWAN-Maxmin %.1f%%, SWAN-Throughput %.1f%%\n"
    (med !fx_all) (med !mm_all) (med !tp_all);
  Printf.printf "  paper: medians 0%% / 58%% / 100%%\n"

let fig11 p =
  section "Fig 11: PercLoss across topologies (single class, CVaR family)";
  Printf.printf "  %-16s %8s %14s %14s %10s\n" "topology" "Teavar"
    "Cvar-Flow-St" "Cvar-Flow-Ad" "Flexile";
  let acc = Array.make 4 [] in
  List.iter
    (fun name ->
      let inst = build_single p ~max_scenarios:p.cvar_scenarios name in
      let run i scheme =
        try
          let v = pct (perc inst (run_scheme scheme inst) 0) in
          acc.(i) <- v :: acc.(i);
          Printf.sprintf "%.2f%%" v
        with Schemes.Timeout _ -> "TLE"
      in
      let tv = run 0 Schemes.Teavar in
      let st = run 1 Schemes.Cvar_flow_st in
      let ad = run 2 Schemes.Cvar_flow_ad in
      let fx = run 3 Schemes.Flexile in
      Printf.printf "  %-16s %8s %14s %14s %10s\n" name tv st ad fx)
    p.topos;
  Printf.printf
    "  medians: Teavar %.1f%%, Cvar-Flow-St %.1f%%, Cvar-Flow-Ad %.1f%%, Flexile %.1f%%\n"
    (med acc.(0)) (med acc.(1)) (med acc.(2)) (med acc.(3));
  Printf.printf "  paper shape: Teavar >> Cvar-Flow-St >= Cvar-Flow-Ad >> Flexile\n"

let fig12 p =
  section "Fig 12: richly connected topologies (two sub-links per link)";
  Printf.printf "  %-16s %8s %8s %10s\n" "topology" "Teavar" "SMORE" "Flexile";
  let red_smore = ref [] and red_tv = ref [] in
  List.iter
    (fun name ->
      let inst =
        memo_inst (Printf.sprintf "rich|%s|%d|%d" name p.max_scenarios p.max_pairs)
          (fun () ->
            let graph =
              Flexile_net.Graph.split_links (Flexile_net.Catalog.by_name name)
            in
            let options = options_of p ~max_scenarios:p.max_scenarios in
            Builder.single_class ~options ~graph ())
      in
      let smore = pct (perc inst (run_scheme ~jobs:p.jobs Schemes.Smore inst) 0) in
      let fx = pct (perc inst (run_scheme ~jobs:p.jobs Schemes.Flexile inst) 0) in
      let tv =
        try Some (pct (perc inst (run_scheme ~jobs:p.jobs Schemes.Teavar inst) 0))
        with Schemes.Timeout _ -> None
      in
      if smore > 0.01 then red_smore := (smore -. fx) /. smore *. 100. :: !red_smore;
      (match tv with
      | Some tv when tv > 0.01 -> red_tv := (tv -. fx) /. tv *. 100. :: !red_tv
      | _ -> ());
      Printf.printf "  %-16s %8s %7.2f%% %9.2f%%\n" name
        (match tv with Some tv -> Printf.sprintf "%.2f%%" tv | None -> "TLE")
        smore fx)
    p.rich_topos;
  Printf.printf
    "  median %%-reduction of Flexile: vs SMORE %.0f%%, vs Teavar %.0f%%\n"
    (med !red_smore) (med !red_tv);
  Printf.printf "  paper: 46%% vs SMORE, 63%% vs Teavar (medians)\n"

let fig13 p =
  section "Fig 13: worst-flow loss per scenario (two classes)";
  (* the paper uses Sprint; we pick the profile topology whose low
     class is actually stressed so the schemes are distinguishable *)
  let inst = build_two p "CWIX" in
  Printf.printf "  topology CWIX, sampled coverage %.5f\n"
    (Flexile_failure.Failure_model.coverage inst.Instance.scenarios);
  let rows =
    [
      ("SWAN-Maxmin", run_scheme ~jobs:p.jobs Schemes.Swan_maxmin inst);
      ("Flexile", run_scheme ~jobs:p.jobs Schemes.Flexile inst);
      ("ScenBest-Multi", run_scheme ~jobs:p.jobs Schemes.Scenbest_multi inst);
    ]
  in
  List.iter
    (fun k ->
      Printf.printf "  %s priority:\n" inst.Instance.classes.(k).Instance.cname;
      Printf.printf "    %-16s %10s %10s %10s %10s\n" "scheme" "@0.9" "@0.99"
        "@0.995" "@0.999";
      List.iter
        (fun (name, losses) ->
          let cdf = Metrics.worst_flow_cdf inst losses ~cls:k in
          Printf.printf "    %-16s" name;
          List.iter
            (fun mass -> Printf.printf " %9.2f%%" (pct (cdf_at cdf mass)))
            [ 0.9; 0.99; 0.995; 0.999 ];
          print_newline ())
        rows)
    [ 0; 1 ];
  Printf.printf
    "  paper shape: high priority lossless for all; low: Flexile ~ ScenBest-Multi << SWAN-Maxmin\n"

let fig14 p =
  section "Fig 14: optimality gap per decomposition iteration (two classes)";
  Printf.printf "  %-12s %10s | gap after iteration 1..5 (low-priority PercLoss %%)\n"
    "topology" "optimal";
  List.iter
    (fun name ->
      (* small instances: the reference optimum must be computable *)
      let inst =
        memo_inst (Printf.sprintf "fig14|%s" name) (fun () ->
            let options =
              {
                (options_of p ~max_scenarios:15) with
                Builder.max_pairs = 25;
              }
            in
            Builder.of_name ~options ~two_classes:true name)
      in
      let config =
        {
          Flexile_offline.default_config with
          Flexile_offline.max_iterations = 5;
          jobs = p.jobs;
        }
      in
      let off = Flexile_offline.solve ~config inst in
      (* the reference IP stops on its node budget only, so whether it
         proves optimality never depends on the machine's speed *)
      let optimal =
        try
          let ip = Ip_direct.solve inst in
          if ip.Ip_direct.optimal then Some (pct (perc inst ip.Ip_direct.losses 1))
          else None
        with _ -> None
      in
      let lb = pct (Lower_bound.perc_loss_lower_bound inst ~cls:1) in
      let reference = match optimal with Some o -> o | None -> lb in
      Printf.printf "  %-12s %9.2f%%%s |" name reference
        (match optimal with Some _ -> " (IP)" | None -> " (LB)");
      let best = ref infinity in
      List.iter
        (fun (it : Flexile_offline.iterate) ->
          let v = pct (perc inst it.Flexile_offline.losses 1) in
          best := Float.min !best v;
          Printf.printf " %6.2f" (Float.max 0. (!best -. reference)))
        off.Flexile_offline.iterates;
      print_newline ())
    p.ip_topos;
  Printf.printf "  paper: all topologies reach gap 0 within 5 iterations; 40%% at iteration 1\n"

let fig15 p =
  section "Fig 15: offline solving time vs topology size";
  Printf.printf "  %-16s %6s %12s %18s\n" "topology" "links" "Flexile(s)" "IP(s)";
  List.iter
    (fun name ->
      let inst = build_two p ~max_scenarios:30 name in
      let links = Flexile_net.Graph.nedges inst.Instance.graph in
      let off =
        Flexile_offline.solve
          ~config:
            { Flexile_offline.default_config with Flexile_offline.jobs = p.jobs }
          inst
      in
      (* the IP stops on its node budget, never on this clock: the
         column reports the time, it does not decide the search *)
      let ip_time =
        if List.mem name p.ip_topos then begin
          let t0 = Flexile_util.Trace.now_s () in
          let optimal =
            try (Ip_direct.solve ~node_limit:p.ip_node_limit inst).Ip_direct.optimal
            with _ -> false
          in
          let t = Flexile_util.Trace.now_s () -. t0 in
          Printf.sprintf "%.1f%s" t (if optimal then "" else " (node limit)")
        end
        else "TLE"
      in
      Printf.printf "  %-16s %6d %12.1f %18s\n" name links
        off.Flexile_offline.wall_time ip_time)
    p.topos;
  Printf.printf "  paper shape: Flexile seconds-scale; IP explodes with size\n"

let fig18 p =
  section "Fig 18: max low-priority scale with zero 99%ile loss";
  Printf.printf "  %-10s %10s %12s\n" "topology" "Flexile" "SWAN-Maxmin";
  List.iter
    (fun name ->
      let graph = Flexile_net.Catalog.by_name name in
      let options = options_of p ~max_scenarios:25 in
      let fx =
        Max_scale.search ~options ~steps:3 ~scheme:Schemes.Flexile ~graph ()
      in
      let mm =
        Max_scale.search ~options ~steps:3 ~scheme:Schemes.Swan_maxmin ~graph
          ()
      in
      Printf.printf "  %-10s %10.2f %12.2f\n" name fx mm)
    [ "Sprint"; "CWIX" ];
  Printf.printf
    "  paper shape: Flexile sustains a higher scale on every topology\n\
    \  (quick profile runs 2 of the paper's 4 topologies; --full runs all)\n"

let table2 () =
  section "Table 2: topologies";
  Printf.printf "  %-16s %6s %6s\n" "name" "nodes" "edges";
  List.iter
    (fun (name, n, m) -> Printf.printf "  %-16s %6d %6d\n" name n m)
    Flexile_net.Catalog.table2

let scenloss p =
  section "Sec 6.3: does Flexile increase loss in scenarios?";
  Printf.printf "  99.9%%ile ScenLoss (worst connected flow), single class:\n";
  Printf.printf "  %-16s %8s %10s %10s\n" "topology" "Teavar" "ScenBest" "Flexile";
  List.iter
    (fun name ->
      let inst = build_single p name in
      let scen_var losses =
        let samples =
          Array.map
            (fun (s : Flexile_failure.Failure_model.scenario) ->
              ( Metrics.scen_loss inst losses
                  ~sid:s.Flexile_failure.Failure_model.sid,
                s.Flexile_failure.Failure_model.prob ))
            inst.Instance.scenarios
        in
        Stats.weighted_var samples ~beta:0.999
      in
      let tv =
        try Printf.sprintf "%.1f%%" (pct (scen_var (run_scheme ~jobs:p.jobs Schemes.Teavar inst)))
        with Schemes.Timeout _ -> "TLE"
      in
      let sb = pct (scen_var (run_scheme ~jobs:p.jobs Schemes.Smore inst)) in
      let fx = pct (scen_var (run_scheme ~jobs:p.jobs Schemes.Flexile inst)) in
      Printf.printf "  %-16s %8s %9.1f%% %9.1f%%\n" name tv sb fx)
    (List.filteri (fun i _ -> i < 4) p.topos);
  (* the gamma knob on Quest (paper: +<=5% per scenario, PercLoss 16%
     vs 35% ScenBest-Multi vs 57% SWAN-Maxmin) *)
  Printf.printf "\n  gamma-bounded variant on Quest (two classes, gamma = 0.05):\n";
  let inst = build_two p ~max_scenarios:30 "Quest" in
  let config =
    {
      Flexile_offline.default_config with
      Flexile_offline.gamma = Some 0.05;
      jobs = p.jobs;
    }
  in
  let fxg = (Flexile_scheme.run ~config inst).Flexile_scheme.losses in
  let sbm = run_scheme ~jobs:p.jobs Schemes.Scenbest_multi inst in
  let mm = run_scheme ~jobs:p.jobs Schemes.Swan_maxmin inst in
  Printf.printf
    "    low-priority PercLoss: Flexile(gamma) %.1f%%, ScenBest-Multi %.1f%%, SWAN-Maxmin %.1f%%\n"
    (pct (perc inst fxg 1)) (pct (perc inst sbm 1)) (pct (perc inst mm 1));
  (* max increase of the worst low-priority flow loss in any scenario *)
  let worst_increase = ref 0. in
  for sid = 0 to Instance.nscenarios inst - 1 do
    let a =
      Array.fold_left
        (fun acc (f : Instance.flow) ->
          if f.Instance.cls = 1 && f.Instance.demand > 0.
             && Instance.flow_connected inst f sid
          then Float.max acc fxg.(f.Instance.fid).(sid)
          else acc)
        0. inst.Instance.flows
    in
    let b =
      Array.fold_left
        (fun acc (f : Instance.flow) ->
          if f.Instance.cls = 1 && f.Instance.demand > 0.
             && Instance.flow_connected inst f sid
          then Float.max acc sbm.(f.Instance.fid).(sid)
          else acc)
        0. inst.Instance.flows
    in
    worst_increase := Float.max !worst_increase (a -. b)
  done;
  Printf.printf
    "    max per-scenario increase of the worst low flow vs ScenBest-Multi: %.1f%%\n"
    (pct !worst_increase)

let ablation p =
  section "Ablation: Flexile's offline accelerations (sec 4.2)";
  Printf.printf "  %-34s %10s %12s %8s\n" "variant" "wall (s)" "subproblems"
    "penalty";
  let topo = "IBM" in
  let inst = build_two p ~max_scenarios:(min 40 p.max_scenarios) topo in
  let base =
    { Flexile_offline.default_config with Flexile_offline.jobs = p.jobs }
  in
  let variants =
    [
      ("default", base);
      ("no scenario pruning", { base with Flexile_offline.prune = false });
      ("no cut sharing (eq. 22)", { base with Flexile_offline.share_cuts = false });
      ( "hamming limit 50 (eq. 23)",
        { base with Flexile_offline.hamming_limit = Some 50 } );
    ]
  in
  let penalties =
    List.map
      (fun (name, config) ->
        let r = Flexile_offline.solve ~config inst in
        let penalty = r.Flexile_offline.best.Flexile_offline.penalty in
        Printf.printf "  %-34s %10.2f %12d %7.4f\n" name
          r.Flexile_offline.wall_time r.Flexile_offline.subproblems_solved penalty;
        penalty)
      variants
  in
  let lo = List.fold_left Float.min infinity penalties in
  let hi = List.fold_left Float.max neg_infinity penalties in
  if Flexile_util.Float_cmp.eq lo hi then
    Printf.printf "  (on %s, two classes; all variants converge to the same penalty)\n" topo
  else
    Printf.printf "  (on %s, two classes; penalties range from %.4f to %.4f)\n" topo lo hi
