module Lp_model = Flexile_lp.Lp_model
module Graph = Flexile_net.Graph
module Tunnels = Flexile_net.Tunnels

type vars = Lp_model.var array array array

let tunnel_vars ?obj model tunnels ~keep =
  Array.mapi
    (fun k per_pair ->
      Array.mapi
        (fun i ts ->
          Array.mapi
            (fun t _ ->
              if keep k i t then
                Lp_model.add_var model ~name:(Printf.sprintf "x_%d_%d_%d" k i t) ?obj ()
              else -1)
            ts)
        per_pair)
    tunnels

let vars ?sid ?obj model inst =
  let keep =
    match sid with
    | None -> fun _ _ _ -> true
    | Some sid -> fun k i t -> Array.mem t inst.Instance.alive_tunnels.(sid).(k).(i)
  in
  tunnel_vars ?obj model inst.Instance.tunnels ~keep

let edge_load graph tunnels x =
  let load = Array.make (Graph.nedges graph) [] in
  Array.iteri
    (fun k per_pair ->
      Array.iteri
        (fun i ts ->
          Array.iteri
            (fun t (tun : Tunnels.t) ->
              let v = x.(k).(i).(t) in
              if v >= 0 then
                Array.iter (fun e -> load.(e) <- (v, 1.) :: load.(e)) tun.Tunnels.path)
            ts)
        per_pair)
    tunnels;
  load

let capacity_rows ?sid model inst x =
  let g = inst.Instance.graph in
  Array.mapi
    (fun e coeffs ->
      if coeffs = [] then -1
      else
        let cap =
          match sid with
          | None -> g.Graph.edges.(e).Graph.capacity
          | Some sid -> Instance.edge_capacity inst ~sid e
        in
        Lp_model.add_row model Lp_model.Le cap coeffs)
    (edge_load g inst.Instance.tunnels x)

let fix_dead st inst x ~sid =
  let live = Array.make (Graph.nedges inst.Instance.graph) false in
  Array.iteri
    (fun k per_pair ->
      Array.iteri
        (fun i ts ->
          let alive = inst.Instance.alive_tunnels.(sid).(k).(i) in
          let next = ref 0 in
          Array.iteri
            (fun t (tun : Tunnels.t) ->
              if !next < Array.length alive && alive.(!next) = t then begin
                incr next;
                Array.iter (fun e -> live.(e) <- true) tun.Tunnels.path
              end
              else if x.(k).(i).(t) >= 0 then
                Flexile_lp.Simplex.set_bounds st x.(k).(i).(t) ~lb:0. ~ub:0.)
            ts)
        per_pair)
    inst.Instance.tunnels;
  live

let set_scenario st inst ~sid ~l ~demand_rows ~cap_rows ~flow =
  Array.iter
    (fun (f : Instance.flow) ->
      let row = demand_rows.(f.Instance.fid) in
      let d = Instance.demand_in inst f sid in
      if row >= 0 then begin
        if d <= 0. then Flexile_lp.Simplex.set_rhs st row 0.
        else if not (Float.equal d f.Instance.demand) then begin
          Flexile_lp.Simplex.set_rhs st row d;
          Flexile_lp.Simplex.set_coef st row l.(f.Instance.fid) d
        end
      end;
      flow f d)
    inst.Instance.flows;
  Array.iteri
    (fun e row ->
      if row >= 0 then Flexile_lp.Simplex.set_rhs st row (Instance.edge_capacity inst ~sid e))
    cap_rows

let alive inst x ~sid (f : Instance.flow) =
  let xs = x.(f.Instance.cls).(f.Instance.pair) in
  Array.fold_right
    (fun t acc -> if xs.(t) >= 0 then xs.(t) :: acc else acc)
    inst.Instance.alive_tunnels.(sid).(f.Instance.cls).(f.Instance.pair)
    []

let delivered inst x ~sid (f : Instance.flow) xval =
  let xs = x.(f.Instance.cls).(f.Instance.pair) in
  Array.fold_left
    (fun acc t -> if xs.(t) >= 0 then acc +. xval xs.(t) else acc)
    0.
    inst.Instance.alive_tunnels.(sid).(f.Instance.cls).(f.Instance.pair)

let losses ?jobs ?(grant = fun _ -> infinity) inst ~routing xval =
  Scenario_engine.sweep_losses ?jobs inst ~f:(fun sid ->
      Array.to_list inst.Instance.flows
      |> List.filter_map (fun (f : Instance.flow) ->
             if f.Instance.demand <= 0. then None
             else
               let d = Instance.demand_in inst f sid in
               if d <= 0. then Some (f.Instance.fid, 0.)
               else
                 let del = Float.min (grant f) (delivered inst (routing sid) ~sid f xval) in
                 Some (f.Instance.fid, 1. -. (del /. d))))
