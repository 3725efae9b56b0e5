module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex
module Graph = Flexile_net.Graph

let min_mlu ~graph ~tunnels ~demands =
  let np = Array.length demands in
  if Array.length tunnels <> np then invalid_arg "Mlu.min_mlu";
  Array.iteri
    (fun i d ->
      if d > 0. && Array.length tunnels.(i) = 0 then
        failwith "Mlu.min_mlu: pair with demand but no tunnel")
    demands;
  let model = Lp_model.create ~name:"min-mlu" () in
  let mu = Lp_model.add_var model ~obj:1. () in
  (* one class: the pairs with demand route on every tunnel *)
  let tunnels = [| tunnels |] in
  let x = Routing.tunnel_vars model tunnels ~keep:(fun _ i _ -> demands.(i) > 0.) in
  Array.iteri
    (fun i xs ->
      if demands.(i) > 0. then
        ignore
          (Lp_model.add_row model Lp_model.Eq demands.(i)
             (Array.to_list (Array.map (fun v -> (v, 1.)) xs))))
    x.(0);
  Array.iteri
    (fun e coeffs ->
      if coeffs <> [] then
        let cap = graph.Graph.edges.(e).Graph.capacity in
        ignore (Lp_model.add_row model Lp_model.Le 0. ((mu, -.cap) :: coeffs)))
    (Routing.edge_load graph tunnels x);
  let sol = Simplex.solve model in
  match sol.Simplex.status with
  | Simplex.Optimal -> sol.Simplex.x.(mu)
  | _ -> failwith "Mlu.min_mlu: LP did not solve to optimality"
