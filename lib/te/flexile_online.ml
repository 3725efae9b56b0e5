module Trace = Flexile_util.Trace

(* online > scenario[i] > {critical-alloc, maxmin-loss}: freezing the
   critical flows at their offline loss, then the waterfilling LP for
   the rest (§4.5).  Scenario spans run worker-side. *)
let sp_online = Trace.span "online"
let sp_scenario = Trace.span "online.scenario"
let sp_critical = Trace.span "online.critical-alloc"
let sp_maxmin = Trace.span "online.maxmin-loss"

(* per-scenario allocation latency distribution: what an operator
   watching the online controller's reaction time would alert on *)
let h_scenario = Trace.hist "online.scenario_seconds"

let allocate ?duals inst ~sid ~critical ~offline_loss =
  Trace.observe_duration h_scenario @@ fun () ->
  Trace.in_span ~arg:sid sp_scenario @@ fun () ->
  let class_order =
    List.init (Array.length inst.Instance.classes) (fun k -> k)
  in
  let prefrozen =
    Trace.in_span sp_critical @@ fun () ->
    Array.to_list inst.Instance.flows
    |> List.filter_map (fun (f : Instance.flow) ->
           let fid = f.Instance.fid in
           if f.Instance.demand > 0. && critical fid then
             (* tiny slack absorbs LP tolerance without weakening the
                offline guarantee materially *)
             Some (fid, Float.min 1. (offline_loss fid +. 1e-7))
           else None)
  in
  Trace.in_span sp_maxmin (fun () ->
      Scen_lp.maxmin_losses inst ~sid ~class_order ~prefrozen ?duals ())

let run ?jobs inst ~offline =
  Trace.in_span sp_online @@ fun () ->
  let best = offline.Flexile_offline.best in
  Scenario_engine.sweep_losses ?jobs inst ~f:(fun sid ->
      allocate inst ~sid
        ~critical:(fun fid -> best.Flexile_offline.z.(fid).(sid))
        ~offline_loss:(fun fid -> best.Flexile_offline.losses.(fid).(sid)))

(* The same sweep, additionally capturing each scenario's binding
   capacity edges from the LP solution the allocation already
   computed.  Each allocation restarts from the instance's nominal
   basis on a copy of the nominal solver state (no shard-local state,
   and the shared state is only read), so both the loss matrix and
   the dual lists are bit-identical for every job count. *)
let run_with_duals ?jobs inst ~offline =
  Trace.in_span sp_online @@ fun () ->
  let best = offline.Flexile_offline.best in
  let per_sid =
    Scenario_engine.sweep ?jobs inst
      ~init:(fun _ -> ())
      ~f:(fun () sid ->
        let captured = ref [] in
        let fl =
          allocate ~duals:(fun d -> captured := d) inst ~sid
            ~critical:(fun fid -> best.Flexile_offline.z.(fid).(sid))
            ~offline_loss:(fun fid -> best.Flexile_offline.losses.(fid).(sid))
        in
        (fl, !captured))
  in
  let losses = Instance.alloc_losses inst in
  Array.iteri
    (fun sid (fl, _) ->
      Array.iter
        (fun (f : Instance.flow) ->
          if f.Instance.demand <= 0. then losses.(f.Instance.fid).(sid) <- 0.)
        inst.Instance.flows;
      List.iter
        (fun (fid, l) ->
          losses.(fid).(sid) <- Float.max 0. (Float.min 1. l))
        fl)
    per_sid;
  (losses, Array.map snd per_sid)
