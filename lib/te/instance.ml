module Graph = Flexile_net.Graph
module Tunnels = Flexile_net.Tunnels
module Failure_model = Flexile_failure.Failure_model

type cls = { cname : string; beta : float; weight : float }

type flow = {
  fid : int;
  cls : int;
  pair : int;
  src : int;
  dst : int;
  demand : float;
}

type memo = ..

type t = {
  graph : Graph.t;
  classes : cls array;
  pairs : (int * int) array;
  tunnels : Tunnels.t array array array;
  flows : flow array;
  scenarios : Failure_model.scenario array;
  alive_tunnels : int array array array array;
  demand_factors : float array array option;
  regimes : string array option;
  memo : memo Flexile_util.Parallel.once;
}

let make ~graph ~classes ~pairs ~tunnels ~demands ?demand_factors ?regimes
    ~scenarios () =
  let nk = Array.length classes and np = Array.length pairs in
  if Array.length tunnels <> nk || Array.length demands <> nk then
    invalid_arg "Instance.make: class dimension mismatch";
  Array.iteri
    (fun k per_pair ->
      if Array.length per_pair <> np then
        invalid_arg "Instance.make: pair dimension mismatch";
      Array.iteri
        (fun i ts ->
          let u, v = pairs.(i) in
          Array.iter
            (fun (t : Tunnels.t) ->
              let tu, tv = t.Tunnels.pair in
              if (tu, tv) <> (u, v) then
                invalid_arg
                  (Printf.sprintf
                     "Instance.make: tunnel pair mismatch class %d pair %d" k i))
            ts)
        per_pair)
    tunnels;
  let flows =
    let acc = ref [] and fid = ref 0 in
    for k = 0 to nk - 1 do
      for i = 0 to np - 1 do
        let u, v = pairs.(i) in
        acc :=
          {
            fid = !fid;
            cls = k;
            pair = i;
            src = u;
            dst = v;
            demand = demands.(k).(i);
          }
          :: !acc;
        incr fid
      done
    done;
    Array.of_list (List.rev !acc)
  in
  let alive_tunnels =
    Array.map
      (fun (s : Failure_model.scenario) ->
        let edge_alive e = s.Failure_model.edge_alive.(e) in
        Array.map
          (Array.map (fun ts ->
               let alive = ref [] in
               Array.iteri
                 (fun ti tun ->
                   if Tunnels.alive tun ~edge_alive then alive := ti :: !alive)
                 ts;
               Array.of_list (List.rev !alive)))
          tunnels)
      scenarios
  in
  (match demand_factors with
  | Some df ->
      if
        Array.length df <> Array.length scenarios
        || Array.exists (fun row -> Array.length row <> Array.length flows) df
      then invalid_arg "Instance.make: demand_factors dimension mismatch";
      Array.iter
        (Array.iter (fun v ->
             if v < 0. || Float.is_nan v then
               invalid_arg "Instance.make: negative demand factor"))
        df
  | None -> ());
  (match regimes with
  | Some r ->
      if Array.length r <> Array.length scenarios then
        invalid_arg "Instance.make: regimes dimension mismatch"
  | None -> ());
  {
    graph;
    classes;
    pairs;
    tunnels;
    flows;
    scenarios;
    alive_tunnels;
    demand_factors;
    regimes;
    memo = Flexile_util.Parallel.once ();
  }

let demand_in t (f : flow) sid =
  match t.demand_factors with
  | None -> f.demand
  | Some df -> f.demand *. df.(sid).(f.fid)

let edge_capacity t ~sid e =
  t.graph.Graph.edges.(e).Graph.capacity
  *. t.scenarios.(sid).Failure_model.cap_frac.(e)

let regime t ~sid =
  match t.regimes with
  | Some r -> r.(sid)
  | None ->
      (* legacy sets carry no tags: everything is either the all-up
         scenario or an independent link failure *)
      if Array.length t.scenarios.(sid).Failure_model.failed_units = 0 then
        "nominal"
      else "independent"

let regime_names t =
  let names = ref [] in
  for sid = Array.length t.scenarios - 1 downto 0 do
    let r = regime t ~sid in
    if not (List.mem r !names) then names := r :: !names
  done;
  List.sort_uniq String.compare !names

let with_classes t classes =
  if Array.length classes <> Array.length t.classes then
    invalid_arg "Instance.with_classes: class count mismatch";
  { t with classes }

let nflows t = Array.length t.flows
let nscenarios t = Array.length t.scenarios

let flows_of_class t k =
  Array.of_list
    (List.filter (fun f -> f.cls = k) (Array.to_list t.flows))

let flow_connected t f sid =
  Array.length t.alive_tunnels.(sid).(f.cls).(f.pair) > 0

let connected_mass t f =
  Array.fold_left
    (fun acc (s : Failure_model.scenario) ->
      if flow_connected t f s.Failure_model.sid then
        acc +. s.Failure_model.prob
      else acc)
    0. t.scenarios

let max_beta_single t =
  Array.fold_left
    (fun acc f -> if f.demand > 0. then Float.min acc (connected_mass t f) else acc)
    1. t.flows

type losses = float array array

let alloc_losses t = Array.make_matrix (nflows t) (nscenarios t) 1.0
