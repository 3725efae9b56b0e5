let all_classes inst =
  List.init (Array.length inst.Instance.classes) (fun k -> k)

let run ?jobs inst =
  Scenario_engine.sweep_losses ?jobs inst ~f:(fun sid ->
      (* single class: every class processed together in one level set *)
      Scen_lp.maxmin_losses inst ~sid ~class_order:(all_classes inst)
        ~merge_classes:true ())

let run_multi ?jobs inst =
  Scenario_engine.sweep_losses ?jobs inst ~f:(fun sid ->
      Scen_lp.maxmin_losses inst ~sid ~class_order:(all_classes inst) ())

let scen_loss_optimal ?jobs inst =
  Scenario_engine.sweep ?jobs inst
    ~init:(fun _ -> ())
    ~f:(fun () sid ->
      let ctx = Scen_lp.build inst ~sid in
      let connected f = Instance.flow_connected inst f sid in
      match Scen_lp.min_max_loss ctx ~flows:connected with
      | Some v -> Float.max 0. (Float.min 1. v)
      | None -> 1.)
