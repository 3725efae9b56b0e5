(* Capacity planning (appendix B + the §3 observation): how much link
   capacity must be added so that every flow meets its availability
   target with zero loss?

   Flexile-style planning lets each flow pick its own critical
   scenarios; scenario-centric planning (what a ScenBest/SMORE operator
   must provision for) needs one scenario set covering the target for
   ALL flows simultaneously.  On the Fig-1 triangle the difference is
   stark: Flexile needs no new capacity, the scenario-centric plan
   must double both access links.

   Run with: dune exec examples/capacity_planning.exe *)

open Flexile_te

let show name (r : Augment.result) inst =
  match r.Augment.status with
  | Flexile_lp.Mip.Infeasible -> Printf.printf "%-24s infeasible\n" name
  | Flexile_lp.Mip.Limit ->
      Printf.printf "%-24s no plan within %d nodes\n" name r.Augment.nodes
  | Flexile_lp.Mip.Optimal | Flexile_lp.Mip.Feasible ->
    Printf.printf "%-24s total cost %.2f" name r.Augment.cost;
    Array.iteri
      (fun e add ->
        if add > 1e-6 then
          let edge = inst.Instance.graph.Flexile_net.Graph.edges.(e) in
          Printf.printf "  [+%.2f on %d-%d]" add edge.Flexile_net.Graph.u
            edge.Flexile_net.Graph.v)
      r.Augment.added;
    print_newline ()

let () =
  let inst = Flexile_core.Builder.fig1 () in
  Printf.printf "Fig-1 triangle: zero-loss target at 99%% availability\n\n";
  let per_flow =
    Augment.min_cost ~mode:`Per_flow ~perc_limit:[| 0.0 |] inst
  in
  show "Flexile planning" per_flow inst;
  let common =
    Augment.min_cost ~mode:`Common ~perc_limit:[| 0.0 |] inst
  in
  show "scenario-centric plan" common inst;
  Printf.printf
    "\n(the scenario-centric plan must survive each single-link failure with\n\
    \ both flows intact simultaneously, hence the extra capacity)\n";

  (* a relaxed target: 25% loss allowed at the percentile *)
  Printf.printf "\nrelaxed target (25%% loss allowed):\n";
  show "Flexile planning"
    (Augment.min_cost ~mode:`Per_flow ~perc_limit:[| 0.25 |] inst)
    inst;
  show "scenario-centric plan"
    (Augment.min_cost ~mode:`Common ~perc_limit:[| 0.25 |] inst)
    inst
