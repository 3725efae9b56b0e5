(* Quickstart: the paper's motivating example (Figs 1-4) end to end.

   A triangle network must carry one unit A->B and one unit A->C, each
   99% of the time, over unit-capacity links failing independently with
   probability 0.01.  Scenario-optimal schemes (SMORE / ScenBest) and
   TeaVar can only guarantee half a unit; Flexile serves both flows
   fully by prioritizing each flow in the scenarios critical for it.

   Run with: dune exec examples/quickstart.exe *)

open Flexile_te

let pct x = 100. *. x

let () =
  let inst = Flexile_core.Builder.fig1 () in
  Printf.printf "Triangle network (Fig 1): 2 flows, %d failure scenarios, target 99%%\n\n"
    (Instance.nscenarios inst);

  (* 1. ScenBest / SMORE: optimal per scenario, blind across scenarios *)
  let smore = Scenbest.run inst in
  Printf.printf "SMORE/ScenBest  PercLoss at 99%% = %.1f%%\n"
    (pct (Metrics.perc_loss inst smore ~cls:0));

  (* 2. TeaVar: CVaR approximation + static routing *)
  let tv = Teavar.run inst in
  Printf.printf "TeaVar          PercLoss at 99%% = %.1f%%\n"
    (pct (Metrics.perc_loss inst tv.Teavar.losses ~cls:0));

  (* 3. Flexile: offline critical scenarios + online allocation *)
  let fx = Flexile_scheme.run inst in
  Printf.printf "Flexile         PercLoss at 99%% = %.1f%%\n\n"
    (pct (Metrics.perc_loss inst fx.Flexile_scheme.losses ~cls:0));

  (* show the critical scenarios Flexile chose (cf. Fig 4) *)
  let best = fx.Flexile_scheme.offline.Flexile_offline.best in
  Printf.printf "critical scenarios chosen by the offline phase:\n";
  Array.iter
    (fun (f : Instance.flow) ->
      Printf.printf "  flow %d->%d:" f.Instance.src f.Instance.dst;
      Array.iteri
        (fun sid (s : Flexile_failure.Failure_model.scenario) ->
          if best.Flexile_offline.z.(f.Instance.fid).(sid) then
            Printf.printf " {%s}"
              (if Array.length s.Flexile_failure.Failure_model.failed_units = 0
               then "none"
               else
                 String.concat ","
                   (Array.to_list
                      (Array.map string_of_int
                         s.Flexile_failure.Failure_model.failed_units))))
        inst.Instance.scenarios;
      print_newline ())
    inst.Instance.flows;

  (* per-flow percentile losses *)
  Printf.printf "\nper-flow 99%%ile loss:\n";
  Array.iter
    (fun (f : Instance.flow) ->
      Printf.printf "  flow %d->%d: SMORE %.1f%%  TeaVar %.1f%%  Flexile %.1f%%\n"
        f.Instance.src f.Instance.dst
        (pct (Metrics.flow_loss_var inst smore f ~beta:0.99))
        (pct (Metrics.flow_loss_var inst tv.Teavar.losses f ~beta:0.99))
        (pct
           (Metrics.flow_loss_var inst fx.Flexile_scheme.losses f ~beta:0.99)))
    inst.Instance.flows
