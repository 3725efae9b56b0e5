(* Bring your own topology: parse a Topology-Zoo-style GML file (here
   inlined; pass a path to load your own), build a single-class
   instance with the paper's methodology, and compare Flexile with
   SMORE and FFC on it.

   Run with: dune exec examples/custom_topology.exe [file.gml] *)

open Flexile_te

let inline_gml =
  {|
graph [
  label "demo-wan"
  node [ id 0 label "SEA" ]
  node [ id 1 label "SFO" ]
  node [ id 2 label "LAX" ]
  node [ id 3 label "DEN" ]
  node [ id 4 label "CHI" ]
  node [ id 5 label "NYC" ]
  node [ id 6 label "ATL" ]
  edge [ source 0 target 1 LinkSpeed 10 ]
  edge [ source 1 target 2 LinkSpeed 10 ]
  edge [ source 0 target 3 LinkSpeed 2.5 ]
  edge [ source 1 target 3 LinkSpeed 5 ]
  edge [ source 2 target 6 LinkSpeed 5 ]
  edge [ source 3 target 4 LinkSpeed 10 ]
  edge [ source 4 target 5 LinkSpeed 10 ]
  edge [ source 5 target 6 LinkSpeed 5 ]
  edge [ source 4 target 6 LinkSpeed 2.5 ]
]
|}

let () =
  let graph =
    match
      if Array.length Sys.argv > 1 then Flexile_net.Gml.load Sys.argv.(1)
      else Flexile_net.Gml.parse ~name:"demo-wan" inline_gml
    with
    | Ok g -> g
    | Error msg ->
        prerr_endline msg;
        exit 2
  in
  Printf.printf "topology %s: %d nodes, %d links\n"
    graph.Flexile_net.Graph.name graph.Flexile_net.Graph.n
    (Flexile_net.Graph.nedges graph);
  let options =
    { Flexile_core.Builder.default_options with Flexile_core.Builder.max_scenarios = 50 }
  in
  let inst = Flexile_core.Builder.single_class ~options ~graph () in
  (* the builder picks the highest feasible target; for a product SLO
     you would fix it explicitly — say three nines *)
  let inst =
    Instance.with_classes inst
      [| { (inst.Instance.classes.(0)) with Instance.beta = 0.999 } |]
  in
  Printf.printf "design target beta = %.5f over %d scenarios\n\n"
    inst.Instance.classes.(0).Instance.beta
    (Instance.nscenarios inst);
  let report name losses =
    Printf.printf "%-8s PercLoss = %6.2f%%\n" name
      (100. *. Metrics.perc_loss inst losses ~cls:0)
  in
  (* on this small, well-connected demo the probabilistic schemes all
     meet the SLO; FFC's deterministic 1-failure planning pays its toll
     in every scenario regardless of how unlikely failures are *)
  report "SMORE" (Scenbest.run inst);
  report "FFC" (Ffc.run inst).Ffc.losses;
  let fx = Flexile_scheme.run inst in
  report "Flexile" fx.Flexile_scheme.losses;
  Printf.printf "\nlower bound for any scheme: %.2f%%\n"
    (100. *. Lower_bound.perc_loss_lower_bound inst ~cls:0)
