module Lp_model = Flexile_lp.Lp_model
module Mip = Flexile_lp.Mip
module Graph = Flexile_net.Graph
module Failure_model = Flexile_failure.Failure_model

type result = { cost : float; added : float array; status : Mip.status; nodes : int }

let min_cost ?(node_limit = 700) ~mode ~perc_limit inst =
  let g = inst.Instance.graph in
  let ne = Graph.nedges g in
  let nq = Instance.nscenarios inst in
  if Array.length perc_limit <> Array.length inst.Instance.classes then
    invalid_arg "Augment.min_cost";
  let max_add =
    4. *. Array.fold_left (fun a e -> Float.max a e.Graph.capacity) 0. g.Graph.edges
  in
  let model = Lp_model.create ~name:"augment" () in
  let delta =
    Array.init ne (fun _ ->
        Lp_model.add_var model ~ub:max_add ~obj:1. ())
  in
  let alphas =
    Array.mapi
      (fun k (_ : Instance.cls) -> Lp_model.add_var model ~ub:perc_limit.(k) ())
      inst.Instance.classes
  in
  let binaries = ref [] in
  (* common-mode scenario indicators *)
  let zq =
    match mode with
    | `Common ->
        Array.init nq (fun _ ->
            let z = Lp_model.add_var model ~ub:1. () in
            binaries := z :: !binaries;
            z)
    | `Per_flow -> [||]
  in
  let zf = Array.make_matrix (Instance.nflows inst) nq (-1) in
  (* every (flow, scenario) loss: its variable, the demand, the tunnel
     variables alive in the scenario, its critical flag and class *)
  let losses = ref [] in
  for q = 0 to nq - 1 do
    let scen = inst.Instance.scenarios.(q) in
    let x = Routing.vars ~sid:q model inst in
    (* load - delta_e <= capacity on every loaded edge the scenario keeps *)
    Array.iteri
      (fun e coeffs ->
        if coeffs <> [] && scen.Failure_model.edge_alive.(e) then
          ignore
            (Lp_model.add_row model Lp_model.Le
               (Instance.edge_capacity inst ~sid:q e)
               ((delta.(e), -1.) :: coeffs)))
      (Routing.edge_load g inst.Instance.tunnels x);
    Array.iter
      (fun (f : Instance.flow) ->
        if f.Instance.demand > 0. then begin
          let fid = f.Instance.fid in
          let connected = Instance.flow_connected inst f q in
          let dq = Instance.demand_in inst f q in
          let l =
            if dq <= 0. then Lp_model.add_var model ~ub:0. ()
            else
              Lp_model.add_var model
                ~lb:(if connected then 0. else 1.)
                ~ub:1. ()
          in
          if connected && dq > 0. then begin
            let coeffs =
              (l, dq) :: List.map (fun v -> (v, 1.)) (Routing.alive inst x ~sid:q f)
            in
            ignore (Lp_model.add_row model Lp_model.Ge dq coeffs)
          end;
          let z =
            match mode with
            | `Common -> zq.(q)
            | `Per_flow ->
                if connected then begin
                  let z = Lp_model.add_var model ~ub:1. () in
                  binaries := z :: !binaries;
                  zf.(fid).(q) <- z;
                  z
                end
                else -1
          in
          if z >= 0 then
            ignore
              (Lp_model.add_row model Lp_model.Ge (-1.)
                 [ (alphas.(f.Instance.cls), 1.); (l, -1.); (z, -1.) ]);
          let alive =
            if connected && dq > 0. then Routing.alive inst x ~sid:q f else []
          in
          losses := (l, dq, connected, alive, z, f.Instance.cls) :: !losses
        end)
      inst.Instance.flows
  done;
  (* coverage *)
  (match mode with
  | `Common ->
      let beta =
        Array.fold_left
          (fun a (c : Instance.cls) -> Float.max a c.Instance.beta)
          0. inst.Instance.classes
      in
      let coeffs =
        List.init nq (fun q ->
            (zq.(q), inst.Instance.scenarios.(q).Failure_model.prob))
      in
      ignore (Lp_model.add_row model Lp_model.Ge beta coeffs)
  | `Per_flow ->
      Array.iter
        (fun (f : Instance.flow) ->
          if f.Instance.demand > 0. then begin
            let coeffs =
              List.filter_map
                (fun q ->
                  if zf.(f.Instance.fid).(q) >= 0 then
                    Some
                      ( zf.(f.Instance.fid).(q),
                        inst.Instance.scenarios.(q).Failure_model.prob )
                  else None)
                (List.init nq (fun q -> q))
            in
            if coeffs <> [] then
              ignore
                (Lp_model.add_row model Lp_model.Ge
                   inst.Instance.classes.(f.Instance.cls).Instance.beta coeffs)
          end)
        inst.Instance.flows);
  (* Repair heuristic: keep the relaxation's routing and added
     capacity, give each loss its least value under that routing and
     each class its full PercLoss allowance, and flag a flow (or, in
     [`Common] mode, a scenario) critical exactly where its losses fit
     the allowance.  [Mip] accepts the plan only if it meets coverage,
     and it then costs the relaxation's bound: at the root, a plan the
     relaxation's routing already carries is proven optimal at once. *)
  let heuristic lp_x =
    let cand = Array.copy lp_x in
    Array.iteri (fun k a -> cand.(a) <- perc_limit.(k)) alphas;
    Array.iter (fun z -> cand.(z) <- 1.) zq;
    List.iter
      (fun (l, dq, connected, alive, z, cls) ->
        let loss =
          if dq <= 0. then 0.
          else if not connected then 1.
          else
            let served = List.fold_left (fun a v -> a +. lp_x.(v)) 0. alive in
            Float.min 1. (Float.max 0. (1. -. (served /. dq)))
        in
        cand.(l) <- loss;
        if z >= 0 then begin
          let fits = loss <= perc_limit.(cls) +. 1e-9 in
          match mode with
          | `Common -> if not fits then cand.(z) <- 0.
          | `Per_flow -> cand.(z) <- (if fits then 1. else 0.)
        end)
      !losses;
    Some cand
  in
  let r =
    Mip.solve ~node_limit ~heuristic ~binaries:(Array.of_list !binaries) model
  in
  let status = r.Mip.status and nodes = r.Mip.nodes in
  match status with
  | Mip.Optimal | Mip.Feasible ->
      { cost = r.Mip.obj; added = Array.map (fun d -> r.Mip.x.(d)) delta; status; nodes }
  | Mip.Infeasible | Mip.Limit ->
      { cost = infinity; added = Array.make ne 0.; status; nodes }
