module Stats = Flexile_util.Stats
module Failure_model = Flexile_failure.Failure_model

let weighted_losses inst losses (f : Instance.flow) =
  Array.map
    (fun (s : Failure_model.scenario) ->
      (losses.(f.Instance.fid).(s.Failure_model.sid), s.Failure_model.prob))
    inst.Instance.scenarios

let flow_loss_var inst losses f ~beta =
  Stats.weighted_var (weighted_losses inst losses f) ~beta

let perc_loss inst losses ~cls =
  let beta = inst.Instance.classes.(cls).Instance.beta in
  Array.fold_left
    (fun acc (f : Instance.flow) ->
      if f.Instance.cls = cls && f.Instance.demand > 0. then
        Float.max acc (flow_loss_var inst losses f ~beta)
      else acc)
    0. inst.Instance.flows

let scen_loss inst losses ~sid =
  Array.fold_left
    (fun acc (f : Instance.flow) ->
      if f.Instance.demand > 0. && Instance.flow_connected inst f sid then
        Float.max acc losses.(f.Instance.fid).(sid)
      else acc)
    0. inst.Instance.flows

let flow_var_cdf inst losses ~cls ~beta =
  let vars =
    Array.to_list inst.Instance.flows
    |> List.filter (fun (f : Instance.flow) ->
           f.Instance.cls = cls && f.Instance.demand > 0.)
    |> List.map (fun f -> flow_loss_var inst losses f ~beta)
  in
  let n = List.length vars in
  if n = 0 then []
  else begin
    let sorted = List.sort compare vars in
    List.mapi
      (fun i v -> (v, float_of_int (i + 1) /. float_of_int n))
      sorted
  end

let scenario_penalty_cdf inst losses ~baseline =
  let samples =
    Array.map
      (fun (s : Failure_model.scenario) ->
        let sid = s.Failure_model.sid in
        let p = scen_loss inst losses ~sid in
        let b = scen_loss inst baseline ~sid in
        (Float.max 0. (p -. b), s.Failure_model.prob))
      inst.Instance.scenarios
  in
  Stats.weighted_cdf samples

let worst_flow_cdf inst losses ~cls =
  let samples =
    Array.map
      (fun (s : Failure_model.scenario) ->
        let sid = s.Failure_model.sid in
        let worst =
          Array.fold_left
            (fun acc (f : Instance.flow) ->
              if
                f.Instance.cls = cls && f.Instance.demand > 0.
                && Instance.flow_connected inst f sid
              then Float.max acc losses.(f.Instance.fid).(sid)
              else acc)
            0. inst.Instance.flows
        in
        (worst, s.Failure_model.prob))
      inst.Instance.scenarios
  in
  Stats.weighted_cdf samples

let total_weighted_penalty inst losses =
  let acc = ref 0. in
  Array.iteri
    (fun k (c : Instance.cls) ->
      acc := !acc +. (c.Instance.weight *. perc_loss inst losses ~cls:k))
    inst.Instance.classes;
  !acc
