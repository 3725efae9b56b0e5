module Lp_model = Flexile_lp.Lp_model
module Mip = Flexile_lp.Mip
module Failure_model = Flexile_failure.Failure_model

type result = {
  losses : Instance.losses;
  penalty : float;
  bound : float;
  optimal : bool;
}

let solve ?(node_limit = 2000) ?jobs inst =
  let nq = Instance.nscenarios inst in
  let nf = Instance.nflows inst in
  let model = Lp_model.create ~name:"flexile-ip" () in
  let alphas =
    Array.map
      (fun (c : Instance.cls) ->
        Lp_model.add_var model ~ub:1. ~obj:c.Instance.weight ())
      inst.Instance.classes
  in
  let lv = Array.make_matrix nf nq (-1) in
  let zv = Array.make_matrix nf nq (-1) in
  let binaries = ref [] in
  for q = 0 to nq - 1 do
    (* per-scenario routing on alive tunnels *)
    let x = Routing.vars ~sid:q model inst in
    ignore (Routing.capacity_rows ~sid:q model inst x);
    Array.iter
      (fun (f : Instance.flow) ->
        if f.Instance.demand > 0. then begin
          let fid = f.Instance.fid in
          let connected = Instance.flow_connected inst f q in
          let dq = Instance.demand_in inst f q in
          (* tiny loss objective: see Flexile_offline.build_template *)
          let l =
            if dq <= 0. then Lp_model.add_var model ~ub:0. ()
            else
              Lp_model.add_var model
                ~lb:(if connected then 0. else 1.)
                ~ub:1.
                ~obj:(1e-3 /. float_of_int (max 1 (nf * nq)))
                ()
          in
          lv.(fid).(q) <- l;
          if connected && dq > 0. then begin
            let coeffs =
              (l, dq) :: List.map (fun v -> (v, 1.)) (Routing.alive inst x ~sid:q f)
            in
            ignore (Lp_model.add_row model Lp_model.Ge dq coeffs);
            (* z only where it can be 1 *)
            let z = Lp_model.add_var model ~ub:1. () in
            zv.(fid).(q) <- z;
            binaries := z :: !binaries;
            (* alpha_k >= l - 1 + z *)
            ignore
              (Lp_model.add_row model Lp_model.Ge (-1.)
                 [ (alphas.(f.Instance.cls), 1.); (l, -1.); (z, -1.) ])
          end
        end)
      inst.Instance.flows
  done;
  (* coverage (3) *)
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then begin
        let fid = f.Instance.fid in
        let coeffs =
          List.filter_map
            (fun q ->
              if zv.(fid).(q) >= 0 then
                Some (zv.(fid).(q), inst.Instance.scenarios.(q).Failure_model.prob)
              else None)
            (List.init nq (fun q -> q))
        in
        let target =
          Float.min
            inst.Instance.classes.(f.Instance.cls).Instance.beta
            (Instance.connected_mass inst f)
          -. 1e-9
        in
        if coeffs <> [] then
          ignore (Lp_model.add_row model Lp_model.Ge target coeffs)
      end)
    inst.Instance.flows;
  let r = Mip.solve ~node_limit ~binaries:(Array.of_list !binaries) model in
  let losses =
    match r.Mip.status with
    | Mip.Optimal | Mip.Feasible ->
        Scenario_engine.sweep_losses ?jobs inst ~f:(fun q ->
            Array.to_list inst.Instance.flows
            |> List.filter_map (fun (f : Instance.flow) ->
                   let fid = f.Instance.fid in
                   if f.Instance.demand <= 0. || lv.(fid).(q) < 0 then None
                   else Some (fid, r.Mip.x.(lv.(fid).(q)))))
    | _ -> Instance.alloc_losses inst
  in
  {
    losses;
    penalty =
      (match r.Mip.status with
      | Mip.Optimal | Mip.Feasible -> r.Mip.obj
      | _ -> infinity);
    bound = r.Mip.bound;
    optimal = r.Mip.status = Mip.Optimal;
  }
