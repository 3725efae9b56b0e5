module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex

let class_order inst =
  List.init (Array.length inst.Instance.classes) (fun k -> k)

let run_maxmin ?jobs inst =
  Scenario_engine.sweep_losses ?jobs inst ~f:(fun sid ->
      Scen_lp.maxmin_losses inst ~sid ~class_order:(class_order inst)
        ~freeze_routing:true ())

(* One scenario of SWAN-Throughput: classes in priority order, each
   maximizing its delivered volume, routing pinned before the next
   class is served.  The scenario's template first restarts from the
   nominal basis under the scenario's bounds alone (the dual simplex,
   to a feasible routing); every class then only changes costs and
   pins bounds the current point satisfies, so it restarts in primal
   phase 2.  Changing costs and bounds at once would make the first
   restart fall back cold. *)
let throughput_scenario inst sid =
  let ctx = Scen_lp.build inst ~sid in
  let model = ctx.Scen_lp.model in
  let st = Simplex.make ?basis:ctx.Scen_lp.nominal model in
  ignore (Simplex.solve_warm st);
  Lp_model.set_obj model ctx.Scen_lp.lambda 0.;
  let results = ref [] in
  List.iter
    (fun k ->
      let class_flows =
        Array.to_list inst.Instance.flows
        |> List.filter (fun (f : Instance.flow) ->
               f.Instance.cls = k && f.Instance.demand > 0.)
      in
      (* maximize delivered volume = minimize sum of l_f * d_f *)
      List.iter
        (fun (f : Instance.flow) ->
          if ctx.Scen_lp.l.(f.Instance.fid) >= 0 then
            Lp_model.set_obj model ctx.Scen_lp.l.(f.Instance.fid)
              f.Instance.demand)
        class_flows;
      let sol = Simplex.solve_warm st in
      List.iter
        (fun (f : Instance.flow) ->
          let fid = f.Instance.fid in
          if ctx.Scen_lp.l.(fid) >= 0 then begin
            Lp_model.set_obj model ctx.Scen_lp.l.(fid) 0.;
            match sol.Simplex.status with
            | Simplex.Optimal ->
                let v = sol.Simplex.x.(ctx.Scen_lp.l.(fid)) in
                results := (fid, v) :: !results;
                (* pin the achieved loss so lower classes cannot
                   cannibalize this class's allocation *)
                Lp_model.set_bounds model ctx.Scen_lp.l.(fid)
                  ~lb:(Lp_model.lb model ctx.Scen_lp.l.(fid))
                  ~ub:(Float.min 1. (v +. 1e-9))
            | _ -> results := (fid, 1.) :: !results
          end
          else
            results :=
              (fid, if f.Instance.demand <= 0. then 0. else 1.) :: !results)
        class_flows;
      (* SWAN pins the class's routing before the next class *)
      match sol.Simplex.status with
      | Simplex.Optimal ->
          Array.iter
            (Array.iter (fun v ->
                 Lp_model.set_bounds model v ~lb:sol.Simplex.x.(v) ~ub:sol.Simplex.x.(v)))
            ctx.Scen_lp.x.(k)
      | _ -> ())
    (class_order inst);
  !results

let run_throughput ?jobs inst =
  Scenario_engine.sweep_losses ?jobs inst ~f:(throughput_scenario inst)
