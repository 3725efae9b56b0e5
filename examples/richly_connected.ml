(* The §6.2 "richly connected" study: split every link into two
   sub-links that fail independently (so the network almost never
   partitions) and compare Flexile with SMORE and TeaVar at the
   highest sustainable availability target (cf. Fig 12).

   Run with: dune exec examples/richly_connected.exe *)

open Flexile_te

let pct x = 100. *. x

let () =
  let graph = Flexile_net.Graph.split_links (Flexile_net.Catalog.by_name "Sprint") in
  let options =
    { Flexile_core.Builder.default_options with Flexile_core.Builder.max_scenarios = 60 }
  in
  let inst = Flexile_core.Builder.single_class ~options ~graph () in
  Printf.printf
    "Sprint with split sub-links: %d links, %d scenarios, beta=%.4f\n\n"
    (Flexile_net.Graph.nedges graph)
    (Instance.nscenarios inst)
    inst.Instance.classes.(0).Instance.beta;

  let report name losses =
    Printf.printf "%-10s PercLoss = %5.2f%%\n" name
      (pct (Metrics.perc_loss inst losses ~cls:0))
  in
  report "SMORE" (Scenbest.run inst);
  let fx = Flexile_scheme.run inst in
  report "Flexile" fx.Flexile_scheme.losses;
  (try report "TeaVar" (Teavar.run inst).Teavar.losses
   with Failure _ -> print_endline "TeaVar     did not solve");
  Printf.printf "\nlower bound on any scheme: %.2f%%\n"
    (pct (Lower_bound.perc_loss_lower_bound inst ~cls:0));

  (* does Flexile hurt scenarios? (§6.3) *)
  let baseline = Scenbest.run inst in
  let cdf = Metrics.scenario_penalty_cdf inst fx.Flexile_scheme.losses ~baseline in
  let at mass =
    List.fold_left (fun acc (v, c) -> if c <= mass then Float.max acc v else acc) 0. cdf
  in
  Printf.printf "Flexile's ScenLoss penalty vs optimal: %.2f%% at 99%%ile, %.2f%% at 99.9%%ile\n"
    (pct (at 0.99)) (pct (at 0.999))
