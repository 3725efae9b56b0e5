(* The scenario restarts of Flexile_te.Scen_lp and SWAN-Throughput as
   they were before every scenario solve began from a copy of one
   factored nominal state: each call creates a fresh solver state for
   its scenario and seeds it with the recorded nominal basis, placing
   every nonbasic variable and factoring that basis again
   ([Simplex.restart_from] of the scenario's state, never a copy of
   it).  The max-min, the min-max loss, the class optimum and
   SWAN-Throughput are kept over the public [Scen_lp.ctx], as the
   reference the shared-state restarts must match bit for bit.  Like
   [Scen_lp.maxmin_losses], the max-min has no level budget; unlike it,
   a level that leaves no level row dual-binding runs an identification
   LP (minimum total active loss at that level), so a run that reaches
   such a level differs from the library's, which freezes every active
   flow there.  With [~cold:true] the max-min solves every level with
   [Simplex.solve_cold], from the slack basis: the oracle the restarts'
   losses are checked against.  [solves] collects every solve's
   iteration count and [levels] every class group's level count,
   newest first. *)

module Simplex = Flexile_lp.Simplex
module Instance = Flexile_te.Instance
module Scen_lp = Flexile_te.Scen_lp

let solves = ref []
let levels = ref []

let restarted (ctx : Scen_lp.ctx) = Simplex.restart_from ctx.Scen_lp.st

let solve ?(cold = false) st () =
  let sol = if cold then Simplex.solve_cold st else Simplex.solve_warm st in
  solves := sol.Simplex.iterations :: !solves;
  sol

let level_active = 0.
let level_inactive = -2.

let min_max_loss (ctx : Scen_lp.ctx) ~flows =
  Array.iter
    (fun (f : Instance.flow) ->
      let r = ctx.Scen_lp.level_rows.(f.Instance.fid) in
      if r >= 0 && flows f then Simplex.set_rhs ctx.Scen_lp.st r level_active)
    ctx.Scen_lp.inst.Instance.flows;
  let sol = solve (restarted ctx) () in
  match sol.Simplex.status with
  | Simplex.Optimal -> Some sol.Simplex.x.(ctx.Scen_lp.lambda)
  | _ -> None

let class_optimum inst ~sid ~cls =
  match
    min_max_loss (Scen_lp.build inst ~sid) ~flows:(fun (f : Instance.flow) -> f.Instance.cls = cls)
  with
  | Some v -> Float.max 0. (Float.min 1. v)
  | None -> 1.

let binding_edges (ctx : Scen_lp.ctx) (row_duals : float array) =
  let acc = ref [] in
  for e = Array.length ctx.Scen_lp.cap_rows - 1 downto 0 do
    let row = ctx.Scen_lp.cap_rows.(e) in
    if row >= 0 then begin
      let d = Float.abs row_duals.(row) in
      if d > 1e-9 then acc := (e, d) :: !acc
    end
  done;
  !acc

let maxmin_losses ?cold inst ~sid ~class_order ~merge_classes ~freeze_routing ~prefrozen ~duals =
  let ctx = Scen_lp.build inst ~sid in
  let duals_pending = ref (Some duals) in
  let capture (sol : Simplex.solution) =
    match !duals_pending with
    | None -> ()
    | Some f ->
        duals_pending := None;
        f (binding_edges ctx sol.Simplex.row_duals)
  in
  let st = restarted ctx
  and lambda = ctx.Scen_lp.lambda
  and level_rows = ctx.Scen_lp.level_rows in
  let solve = solve ?cold st in
  let participating =
    Array.to_list inst.Instance.flows
    |> List.filter (fun (f : Instance.flow) ->
           f.Instance.demand > 0. && List.mem f.Instance.cls class_order)
  in
  List.iter
    (fun (fid, cap) ->
      if ctx.Scen_lp.l.(fid) >= 0 && Simplex.lb st ctx.Scen_lp.l.(fid) <= cap then
        Simplex.set_bounds st ctx.Scen_lp.l.(fid)
          ~lb:(Simplex.lb st ctx.Scen_lp.l.(fid))
          ~ub:(Float.min 1. cap))
    prefrozen;
  let results = ref [] in
  let freeze fid v =
    if ctx.Scen_lp.l.(fid) >= 0 then begin
      let lb = Simplex.lb st ctx.Scen_lp.l.(fid) in
      let ub = Float.min (Simplex.ub st ctx.Scen_lp.l.(fid)) (Float.max lb v) in
      Simplex.set_bounds st ctx.Scen_lp.l.(fid) ~lb ~ub;
      Simplex.set_rhs st level_rows.(fid) level_inactive;
      results := (fid, ub) :: !results
    end
    else results := (fid, v) :: !results
  in
  let groups = if merge_classes then [ class_order ] else List.map (fun k -> [ k ]) class_order in
  List.iter
    (fun group ->
      let active =
        ref
          (List.filter_map
             (fun (f : Instance.flow) ->
               if not (List.mem f.Instance.cls group) then None
               else if Instance.demand_in inst f sid <= 0. then begin
                 results := (f.Instance.fid, 0.) :: !results;
                 None
               end
               else if not (Instance.flow_connected inst f sid) then begin
                 results := (f.Instance.fid, 1.) :: !results;
                 None
               end
               else Some f.Instance.fid)
             participating)
      in
      List.iter (fun fid -> Simplex.set_rhs st level_rows.(fid) level_active) !active;
      let level = ref 0 in
      let last_sol = ref None in
      while !active <> [] do
        incr level;
        let sol = solve () in
        match sol.Simplex.status with
        | Simplex.Optimal ->
            capture sol;
            last_sol := Some sol.Simplex.x;
            let lam = Float.max 0. sol.Simplex.x.(lambda) in
            if lam <= 1e-7 then begin
              List.iter (fun fid -> freeze fid 0.) !active;
              active := []
            end
            else begin
              let stuck, rest =
                List.partition (fun fid -> sol.Simplex.row_duals.(level_rows.(fid)) > 1e-9) !active
              in
              if stuck <> [] then begin
                List.iter (fun fid -> freeze fid lam) stuck;
                active := rest
              end
              else begin
                Simplex.set_obj st lambda 0.;
                Simplex.set_bounds st lambda ~lb:0. ~ub:lam;
                List.iter (fun fid -> Simplex.set_obj st ctx.Scen_lp.l.(fid) 1.) !active;
                let sol2 = solve () in
                (match sol2.Simplex.status with
                | Simplex.Optimal -> last_sol := Some sol2.Simplex.x
                | _ -> ());
                List.iter (fun fid -> Simplex.set_obj st ctx.Scen_lp.l.(fid) 0.) !active;
                Simplex.set_obj st lambda 1.;
                Simplex.set_bounds st lambda ~lb:0. ~ub:1.;
                let stuck, rest =
                  match sol2.Simplex.status with
                  | Simplex.Optimal ->
                      List.partition
                        (fun fid -> sol2.Simplex.x.(ctx.Scen_lp.l.(fid)) >= lam -. 1e-6)
                        !active
                  | _ -> (!active, [])
                in
                let stuck = if stuck = [] then !active else stuck in
                List.iter (fun fid -> freeze fid lam) stuck;
                active := (match sol2.Simplex.status with Simplex.Optimal -> rest | _ -> [])
              end
            end
        | _ ->
            List.iter (fun fid -> freeze fid 1.) !active;
            active := []
      done;
      levels := !level :: !levels;
      if freeze_routing then
        match !last_sol with
        | None -> ()
        | Some xs ->
            List.iter
              (fun k ->
                Array.iter
                  (Array.iter (fun v -> Simplex.set_bounds st v ~lb:xs.(v) ~ub:xs.(v)))
                  ctx.Scen_lp.x.(k))
              group)
    groups;
  !results

let throughput_scenario inst sid =
  let ctx = Scen_lp.build inst ~sid in
  let st = restarted ctx in
  let solve = solve st in
  ignore (solve ());
  Simplex.set_obj st ctx.Scen_lp.lambda 0.;
  let results = ref [] in
  List.iter
    (fun k ->
      let class_flows =
        Array.to_list inst.Instance.flows
        |> List.filter (fun (f : Instance.flow) -> f.Instance.cls = k && f.Instance.demand > 0.)
      in
      List.iter
        (fun (f : Instance.flow) ->
          if ctx.Scen_lp.l.(f.Instance.fid) >= 0 then
            Simplex.set_obj st ctx.Scen_lp.l.(f.Instance.fid) f.Instance.demand)
        class_flows;
      let sol = solve () in
      List.iter
        (fun (f : Instance.flow) ->
          let fid = f.Instance.fid in
          if ctx.Scen_lp.l.(fid) >= 0 then begin
            Simplex.set_obj st ctx.Scen_lp.l.(fid) 0.;
            match sol.Simplex.status with
            | Simplex.Optimal ->
                let v = sol.Simplex.x.(ctx.Scen_lp.l.(fid)) in
                results := (fid, v) :: !results;
                Simplex.set_bounds st ctx.Scen_lp.l.(fid)
                  ~lb:(Simplex.lb st ctx.Scen_lp.l.(fid))
                  ~ub:(Float.min 1. (v +. 1e-9))
            | _ -> results := (fid, 1.) :: !results
          end
          else results := (fid, if f.Instance.demand <= 0. then 0. else 1.) :: !results)
        class_flows;
      match sol.Simplex.status with
      | Simplex.Optimal ->
          Array.iter
            (Array.iter (fun v ->
                 Simplex.set_bounds st v ~lb:sol.Simplex.x.(v) ~ub:sol.Simplex.x.(v)))
            ctx.Scen_lp.x.(k)
      | _ -> ())
    (List.init (Array.length inst.Instance.classes) Fun.id);
  !results
