module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex
module Row_gen = Flexile_lp.Row_gen

type result = {
  losses : Instance.losses;
  cvar : float;
  allocation : float array array;
  rounds : int;
}

let run ?jobs inst =
  if Array.length inst.Instance.classes <> 1 then
    invalid_arg "Teavar.run: single traffic class only";
  let beta = inst.Instance.classes.(0).Instance.beta in
  let flows = Instance.flows_of_class inst 0 in
  (* TeaVar's s_q is shared by every flow of scenario q, so scenarios
     merge only when they leave every pair the same alive tunnels and
     every flow the same demand: then their loss rows are equal, and
     sum_{q in c} p_q (L - alpha)^+ = P_c (L - alpha)^+ *)
  let classes =
    Instance.scenario_classes inst ~key:(fun q ->
        ( inst.Instance.alive_tunnels.(q),
          Array.map (fun f -> Instance.demand_in inst f q) flows ))
  in
  let model = Lp_model.create ~name:"teavar" () in
  let alpha = Lp_model.add_var model ~name:"alpha" ~obj:1. () in
  let s =
    Array.map
      (fun (cl : Instance.scenario_class) ->
        Lp_model.add_var model
          ~name:(Printf.sprintf "s_%d" cl.Instance.first)
          ~obj:(cl.Instance.mass /. (1. -. beta))
          ())
      classes
  in
  let x = Routing.vars model inst in
  (* no-failure capacity: static allocations always fit *)
  ignore (Routing.capacity_rows model inst x);
  (* lazy rows: s_c + alpha >= 1 - delivered(f, q) / d_fq, for every
     flow with demand in the first scenario q of class c *)
  let violated xval =
    (* all violated loss rows, worst first (Row_gen caps the batch) *)
    let out = ref [] in
    Array.iteri
      (fun c (cl : Instance.scenario_class) ->
        let q = cl.Instance.first in
        Array.iter
          (fun (f : Instance.flow) ->
            let d = Instance.demand_in inst f q in
            if d > 0. then begin
              let del = Routing.delivered inst x ~sid:q f (fun v -> xval.(v)) in
              let loss = 1. -. (del /. d) in
              let slack = xval.(s.(c)) +. xval.(alpha) -. loss in
              if slack < -1e-7 then begin
                let coeffs =
                  (s.(c), 1.) :: (alpha, 1.)
                  :: List.map (fun v -> (v, 1. /. d)) (Routing.alive inst x ~sid:q f)
                in
                out :=
                  (-.slack, { Row_gen.sense = Lp_model.Ge; rhs = 1.; coeffs })
                  :: !out
              end
            end)
          flows)
      classes;
    List.stable_sort (fun (a, _) (b, _) -> Float.compare b a) !out
    |> List.map snd
  in
  let { Row_gen.solution = sol; rounds; converged } = Row_gen.solve ~violated model in
  if not converged then failwith "Teavar.run: LP did not solve";
  (* post-analysis losses, per scenario through the engine *)
  let losses = Routing.losses ?jobs inst ~routing:(fun _ -> x) (fun v -> sol.Simplex.x.(v)) in
  let allocation =
    Array.map (Array.map (fun v -> sol.Simplex.x.(v))) x.(0)
  in
  { losses; cvar = sol.Simplex.obj; allocation; rounds }
