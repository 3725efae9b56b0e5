module Parallel = Flexile_util.Parallel
module Trace = Flexile_util.Trace

let c_sweeps = Trace.counter "engine.sweeps"
let c_scenarios = Trace.counter "engine.scenarios"
let c_kept = Trace.counter "engine.scenarios_kept"
let sp_sweep = Trace.span "engine.sweep"
let sp_merge = Trace.span "engine.merge"

(* distribution of per-(flow, scenario) delivered loss across every
   sweep — the raw material of the FlowLoss percentile objective *)
let h_flow_loss = Trace.hist "engine.flow_loss"

let sweep ?jobs inst ~init ~f =
  Trace.incr c_sweeps;
  Trace.add c_scenarios (Instance.nscenarios inst);
  Trace.in_span ~arg:(Instance.nscenarios inst) sp_sweep (fun () ->
      Parallel.map ?jobs ~n:(Instance.nscenarios inst) ~init ~f ())

let sweep_some ?jobs inst ~keep ~f =
  let nq = Instance.nscenarios inst in
  let kept = Array.init nq keep in
  Trace.incr c_sweeps;
  Trace.add c_scenarios nq;
  Array.iter (fun k -> if k then Trace.incr c_kept) kept;
  Trace.in_span ~arg:nq sp_sweep (fun () ->
      Parallel.map ?jobs ~n:nq ~init:ignore
        ~f:(fun () sid -> if kept.(sid) then Some (f sid) else None)
        ())

let sweep_losses ?jobs inst ~f =
  let per_sid = sweep ?jobs inst ~init:(fun _ -> ()) ~f:(fun () sid -> f sid) in
  Trace.in_span sp_merge @@ fun () ->
  let losses = Instance.alloc_losses inst in
  Array.iteri
    (fun sid results ->
      List.iter
        (fun (fid, v) ->
          let v = Float.max 0. (Float.min 1. v) in
          Trace.observe h_flow_loss v;
          losses.(fid).(sid) <- v)
        results)
    per_sid;
  Array.iter
    (fun (fl : Instance.flow) ->
      if fl.Instance.demand <= 0. then
        Array.fill losses.(fl.Instance.fid) 0 (Instance.nscenarios inst) 0.)
    inst.Instance.flows;
  losses
