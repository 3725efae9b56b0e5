(* The appendix's directed-triangle unfairness example (Fig. 17), the
   Fig. 1 triangle with flow A-B restricted to its direct link: flow
   A-C may use both paths.  Every link fails independently with
   probability 0.01. *)

open Flexile_te

let fig17 () =
  let graph = Flexile_net.Catalog.triangle () in
  let tunnel ~pair edges = Flexile_net.Tunnels.make graph ~pair (Array.of_list edges) in
  let tunnels =
    [|
      [|
        [| tunnel ~pair:(0, 1) [ 0 ] |];
        [| tunnel ~pair:(0, 2) [ 1 ]; tunnel ~pair:(0, 2) [ 0; 2 ] |];
      |];
    |]
  in
  let scenarios =
    Flexile_failure.Failure_model.enumerate ~cutoff:1e-7 ~max_scenarios:8
      (Flexile_failure.Failure_model.binary ~nedges:3 [| 0.01; 0.01; 0.01 |])
  in
  Instance.make ~graph
    ~classes:[| { Instance.cname = "all"; beta = 0.99; weight = 1. } |]
    ~pairs:[| (0, 1); (0, 2) |] ~tunnels ~demands:[| [| 1.; 1. |] |] ~scenarios ()
