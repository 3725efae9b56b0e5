module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex
module Row_gen = Flexile_lp.Row_gen

type result = {
  losses : Instance.losses;
  max_flow_cvar : float;
  allocation : float array array array;
  rounds : int;
}

(* Both variants share the structure
     min theta
     s.t. theta >= alpha_f + 1/(1-beta) * sum_c P_c s_fc      (per flow)
          s_fc + alpha_f >= 1 - delivered_fq / d_fq           (lazy)
          capacity rows
   and differ only in whether x is indexed by scenario.  The loss rows
   are written per scenario class c of the flow (Instance.scenario_classes):
   the scenarios q in c leave it the same routing copy, alive tunnels and
   demand, so their rows are one row, built from c's first member, and
   sum_{q in c} p_q (L - alpha)^+ = P_c (L - alpha)^+. *)
let run_common ~adaptive ?jobs inst =
  if Array.length inst.Instance.classes <> 1 then
    invalid_arg "Cvar_flow: single traffic class only";
  let beta = inst.Instance.classes.(0).Instance.beta in
  let nq = Instance.nscenarios inst in
  let flows =
    Array.to_list (Instance.flows_of_class inst 0)
    |> List.filter (fun (f : Instance.flow) -> f.Instance.demand > 0.)
  in
  let model =
    Lp_model.create ~name:(if adaptive then "cvar-flow-ad" else "cvar-flow-st") ()
  in
  let theta = Lp_model.add_var model ~name:"theta" ~obj:1. () in
  (* per-flow theta_f (appendix C) with a tiny objective weight: when
     one hopeless flow pins the max, the other flows' CVaRs must still
     be optimized, or the LP solution is arbitrary for them *)
  let eps = 1e-3 /. float_of_int (max 1 (List.length flows)) in
  let alpha = Array.make (Instance.nflows inst) (-1) in
  let classes = Array.make (Instance.nflows inst) [||] in
  let s = Array.make (Instance.nflows inst) [||] in
  List.iter
    (fun (f : Instance.flow) ->
      let fid = f.Instance.fid in
      (* the adaptive variant's routing copy is the scenario, so its
         classes are singletons *)
      classes.(fid) <-
        Instance.scenario_classes inst ~key:(fun q ->
            ( (if adaptive then q else 0),
              inst.Instance.alive_tunnels.(q).(f.Instance.cls).(f.Instance.pair),
              Instance.demand_in inst f q ));
      alpha.(fid) <- Lp_model.add_var model ();
      s.(fid) <- Array.map (fun _ -> Lp_model.add_var model ()) classes.(fid);
      let theta_f = Lp_model.add_var model ~obj:eps () in
      let coeffs =
        (theta_f, 1.) :: (alpha.(fid), -1.)
        :: List.mapi
             (fun c (cl : Instance.scenario_class) ->
               (s.(fid).(c), -.cl.Instance.mass /. (1. -. beta)))
             (Array.to_list classes.(fid))
      in
      ignore (Lp_model.add_row model Lp_model.Ge 0. coeffs);
      ignore (Lp_model.add_row model Lp_model.Ge 0. [ (theta, 1.); (theta_f, -1.) ]))
    flows;
  (* routing variables and capacity rows: the adaptive variant routes
     each scenario on its alive tunnels against its degraded
     capacities; the static one routes once against nominal capacities
     and its losses are evaluated per scenario downstream *)
  let x =
    if adaptive then Array.init nq (fun q -> Routing.vars ~sid:q model inst)
    else [| Routing.vars model inst |]
  in
  Array.iteri
    (fun qx xq ->
      let sid = if adaptive then Some qx else None in
      ignore (Routing.capacity_rows ?sid model inst xq))
    x;
  let routing q = x.(if adaptive then q else 0) in
  let violated xval =
    let out = ref [] in
    List.iter
      (fun (f : Instance.flow) ->
        let fid = f.Instance.fid in
        Array.iteri
          (fun c (cl : Instance.scenario_class) ->
            let q = cl.Instance.first in
            let d = Instance.demand_in inst f q in
            if d > 0. then begin
              let loss =
                1. -. (Routing.delivered inst (routing q) ~sid:q f (fun v -> xval.(v)) /. d)
              in
              if xval.(s.(fid).(c)) +. xval.(alpha.(fid)) < loss -. 1e-7 then begin
                let coeffs =
                  (s.(fid).(c), 1.) :: (alpha.(fid), 1.)
                  :: List.map (fun v -> (v, 1. /. d)) (Routing.alive inst (routing q) ~sid:q f)
                in
                out := { Row_gen.sense = Lp_model.Ge; rhs = 1.; coeffs } :: !out
              end
            end)
          classes.(fid))
      flows;
    !out
  in
  let { Row_gen.solution = sol; rounds; converged } =
    Row_gen.solve ~per_round:800 ~violated model
  in
  if not converged then failwith "Cvar_flow: LP did not solve";
  let losses = Routing.losses ?jobs inst ~routing (fun v -> sol.Simplex.x.(v)) in
  let allocation =
    Array.map
      (fun xq -> Array.map (Array.map (fun v -> if v >= 0 then sol.Simplex.x.(v) else 0.)) xq.(0))
      x
  in
  { losses; max_flow_cvar = sol.Simplex.obj; allocation; rounds }

let run_static ?jobs inst = run_common ~adaptive:false ?jobs inst
let run_adaptive ?jobs inst = run_common ~adaptive:true ?jobs inst
