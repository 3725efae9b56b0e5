module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex

(* Maximum volume a single flow can push over a subset of its tunnels
   (each a fixed path) subject to edge capacities: a tiny LP per
   (flow, scenario). *)
let max_alone inst (f : Instance.flow) sid =
  let alive = inst.Instance.alive_tunnels.(sid).(f.Instance.cls).(f.Instance.pair) in
  if Array.length alive = 0 then 0.
  else begin
    let model = Lp_model.create ~name:"isolated" () in
    let tunnels = [| [| inst.Instance.tunnels.(f.Instance.cls).(f.Instance.pair) |] |] in
    let x =
      Routing.tunnel_vars ~obj:(-1.) model tunnels ~keep:(fun _ _ t -> Array.mem t alive)
    in
    Array.iteri
      (fun e coeffs ->
        if coeffs <> [] then
          ignore
            (Lp_model.add_row model Lp_model.Le (Instance.edge_capacity inst ~sid e) coeffs))
      (Routing.edge_load inst.Instance.graph tunnels x);
    (* cap at the demand so the LP stays bounded *)
    ignore
      (Lp_model.add_row model Lp_model.Le
         (Instance.demand_in inst f sid)
         (List.filter_map (fun v -> if v >= 0 then Some (v, 1.) else None)
            (Array.to_list x.(0).(0))));
    let sol = Simplex.solve model in
    match sol.Simplex.status with
    | Simplex.Optimal -> -.sol.Simplex.obj
    | _ -> 0.
  end

let isolated_losses inst =
  Scenario_engine.sweep_losses inst ~f:(fun sid ->
      Array.fold_right
        (fun (f : Instance.flow) acc ->
          let demand = Instance.demand_in inst f sid in
          let loss =
            if demand <= 0. then 0. else 1. -. (max_alone inst f sid /. demand)
          in
          (f.Instance.fid, loss) :: acc)
        inst.Instance.flows [])

let perc_loss_lower_bound inst ~cls =
  let iso = isolated_losses inst in
  Metrics.perc_loss inst iso ~cls
