module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex

let src = Logs.Src.create "flexile.te" ~doc:"TE schemes"

module Log = (val Logs.src_log src : Logs.LOG)

(* The arc-path LP of an instance, compiled once: every tunnel, the loss
   variable, coverage row and level row of every positive-demand flow,
   the capacity row of every edge some tunnel crosses, and the max-min
   level variable [lambda] (objective 1).  Under its nominal settings
   every tunnel is alive, capacities and demands are the base ones and
   every level row is inactive; a scenario changes only bounds, RHS and
   demand coefficients, on its own copy of [nominal].  Never written
   after [compile]; [nominal] is only ever copied, from any domain. *)
type template = {
  tx : Lp_model.var array array array;
  tl : Lp_model.var array;
  tlambda : Lp_model.var;
  demand_rows : Lp_model.row array;
  tcap_rows : Lp_model.row array;
  tlevel_rows : Lp_model.row array;
  nominal : Simplex.t;
}

type Instance.memo += Template of template

type ctx = {
  inst : Instance.t;
  sid : int;
  st : Simplex.t;
  x : Lp_model.var array array array;
  l : Lp_model.var array;
  lambda : Lp_model.var;
  cap_rows : Lp_model.row array;
  level_rows : Lp_model.row array;
  nominal : Simplex.t;
}

(* A level row [lambda - l_f >= rhs] is active at RHS 0 and inactive at
   -2, where it always holds since l <= 1 <= lambda + 2. *)
let level_active = 0.
let level_inactive = -2.

(* The restart point of every scenario: a solver state factored at an
   optimal basis of the nominal template, where every level row is
   inactive, so lambda = 0 and the basis is a feasible routing of the
   base demands.  On the failover replay of IBM two-class this start
   takes ~15% fewer dual pivots than the min-max-loss optimum over all
   flows.  Without an optimal basis it is a fresh state, whose copies
   solve cold. *)
let nominal_state model =
  let st = Simplex.make model in
  ignore (Simplex.solve_warm st);
  Simplex.restart_from st

let compile inst =
  let model = Lp_model.create ~name:"scen-template" () in
  let x = Routing.vars model inst in
  let nf = Instance.nflows inst in
  let l = Array.make nf (-1) in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then
        l.(f.Instance.fid) <-
          Lp_model.add_var model ~name:(Printf.sprintf "l_%d" f.Instance.fid) ~ub:1. ())
    inst.Instance.flows;
  let lambda = Lp_model.add_var model ~name:"lambda" ~ub:1. ~obj:1. () in
  (* coverage: sum_t x_t + d_f * l_f >= d_f *)
  let demand_rows = Array.make nf (-1) in
  Array.iter
    (fun (f : Instance.flow) ->
      let fid = f.Instance.fid in
      if l.(fid) >= 0 then
        demand_rows.(fid) <-
          Lp_model.add_row model Lp_model.Ge f.Instance.demand
            ((l.(fid), f.Instance.demand)
            :: Array.to_list
                 (Array.map (fun v -> (v, 1.)) x.(f.Instance.cls).(f.Instance.pair))))
    inst.Instance.flows;
  let cap_rows = Routing.capacity_rows model inst x in
  let level_rows =
    Array.map
      (fun lv ->
        if lv < 0 then -1
        else Lp_model.add_row model Lp_model.Ge level_inactive [ (lambda, 1.); (lv, -1.) ])
      l
  in
  {
    tx = x;
    tl = l;
    tlambda = lambda;
    demand_rows;
    tcap_rows = cap_rows;
    tlevel_rows = level_rows;
    nominal = nominal_state model;
  }

(* Compiled and solved on first use, then cached on the instance.  Only
   the first domain to need it compiles (so the nominal solve's solver
   counters are spent once per instance); the others wait for it. *)
let template inst =
  match Flexile_util.Parallel.force_once inst.Instance.memo (fun () -> Template (compile inst)) with
  | Template t -> t
  | _ -> invalid_arg "Scen_lp: the instance memo holds foreign data"

let build inst ~sid =
  let tpl = template inst in
  let st = Simplex.copy tpl.nominal in
  let live = Routing.fix_dead st inst tpl.tx ~sid in
  Routing.set_scenario st inst ~sid ~l:tpl.tl ~demand_rows:tpl.demand_rows
    ~cap_rows:tpl.tcap_rows ~flow:(fun f d ->
      let lv = tpl.tl.(f.Instance.fid) in
      if lv >= 0 then
        if d <= 0. then
          (* nothing requested in this scenario: loss pinned to 0 *)
          Simplex.set_bounds st lv ~lb:0. ~ub:0.
        else if not (Instance.flow_connected inst f sid) then
          Simplex.set_bounds st lv ~lb:1. ~ub:1.);
  let cap_rows = Array.mapi (fun e row -> if live.(e) then row else -1) tpl.tcap_rows in
  {
    inst;
    sid;
    st;
    x = tpl.tx;
    l = tpl.tl;
    lambda = tpl.tlambda;
    cap_rows;
    level_rows = tpl.tlevel_rows;
    nominal = tpl.nominal;
  }

let min_max_loss ctx ~flows =
  Array.iter
    (fun (f : Instance.flow) ->
      let r = ctx.level_rows.(f.Instance.fid) in
      if r >= 0 && flows f then Simplex.set_rhs ctx.st r level_active)
    ctx.inst.Instance.flows;
  let sol = Simplex.solve_warm ctx.st in
  match sol.Simplex.status with
  | Simplex.Optimal -> Some sol.Simplex.x.(ctx.lambda)
  | _ -> None

(* Clairvoyant per-class optimum: the best max loss class [cls] could
   achieve in this scenario with the whole network to itself (other
   classes' loss variables float free, so their demand rows consume no
   capacity).  Any allocation restricted to the class is feasible
   here, hence online_max_loss - class_optimum >= 0 up to LP
   tolerance: the regret baseline. *)
let class_optimum inst ~sid ~cls =
  match
    min_max_loss (build inst ~sid) ~flows:(fun (f : Instance.flow) -> f.Instance.cls = cls)
  with
  | Some v -> Float.max 0. (Float.min 1. v)
  | None -> 1.

(* Capacity-row duals of a solved model: the per-edge marginal value
   of one more unit of capacity.  Nonzero entries are the saturated
   (binding) edges — the scenario's bottlenecks. *)
let binding_edges ctx (row_duals : float array) =
  let acc = ref [] in
  for e = Array.length ctx.cap_rows - 1 downto 0 do
    let row = ctx.cap_rows.(e) in
    if row >= 0 then begin
      let d = Float.abs row_duals.(row) in
      if d > 1e-9 then acc := (e, d) :: !acc
    end
  done;
  !acc

(* SWAN-style max-min on flow loss over the scenario's state.  Each
   level activates the level rows of the flows still active and
   re-optimizes from the previous level's basis (the first level from
   the nominal basis); freezing a flow caps its loss and deactivates
   its row. *)
let maxmin_losses inst ~sid ~class_order ?(merge_classes = false)
    ?(freeze_routing = false) ?(prefrozen = []) ?duals () =
  let ctx = build inst ~sid in
  (* bottleneck attribution hook: hand the caller the capacity-row
     duals of the first optimal solve — the binding edges while the
     top priority group is being served — without a re-solve *)
  let duals_pending = ref duals in
  let capture (sol : Simplex.solution) =
    match !duals_pending with
    | None -> ()
    | Some f ->
        duals_pending := None;
        f (binding_edges ctx sol.Simplex.row_duals)
  in
  let st = ctx.st and lambda = ctx.lambda and level_rows = ctx.level_rows in
  let participating =
    Array.to_list inst.Instance.flows
    |> List.filter (fun (f : Instance.flow) ->
           f.Instance.demand > 0. && List.mem f.Instance.cls class_order)
  in
  List.iter
    (fun (fid, cap) ->
      if ctx.l.(fid) >= 0 && Simplex.lb st ctx.l.(fid) <= cap then
        Simplex.set_bounds st ctx.l.(fid) ~lb:(Simplex.lb st ctx.l.(fid))
          ~ub:(Float.min 1. cap))
    prefrozen;
  let results = ref [] in
  (* a participating flow has positive demand, hence a loss variable *)
  let freeze fid v =
    let lb = Simplex.lb st ctx.l.(fid) in
    let ub = Float.min (Simplex.ub st ctx.l.(fid)) (Float.max lb v) in
    Simplex.set_bounds st ctx.l.(fid) ~lb ~ub;
    Simplex.set_rhs st level_rows.(fid) level_inactive;
    results := (fid, ub) :: !results
  in
  let groups =
    if merge_classes then [ class_order ]
    else List.map (fun k -> [ k ]) class_order
  in
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
      (* activate level rows for this class *)
      List.iter (fun fid -> Simplex.set_rhs st level_rows.(fid) level_active) !active;
      let last_sol = ref None in
      (* Every level freezes at least one active flow, so the group
         solves at most |active| levels.  A level at lam > 1e-7 freezes
         the flows whose level rows are dual-binding: they cannot do
         better than lam.  lambda has cost 1 and appears only in the
         active level rows (an inactive row holds with slack), so when
         lambda > 0 their duals sum to 1 and some row binds; should
         numerics leave none above 1e-9, every active flow freezes at
         lam, which only guards termination. *)
      while !active <> [] do
        let sol = Simplex.solve_warm st in
        match sol.Simplex.status with
        | Simplex.Optimal ->
            capture sol;
            last_sol := Some sol.Simplex.x;
            let lam = Float.max 0. sol.Simplex.x.(lambda) in
            let binding fid = sol.Simplex.row_duals.(level_rows.(fid)) > 1e-9 in
            let v, stuck, rest =
              if lam <= 1e-7 then (0., !active, [])
              else
                match List.partition binding !active with
                | [], _ -> (lam, !active, [])
                | stuck, rest -> (lam, stuck, rest)
            in
            List.iter (fun fid -> freeze fid v) stuck;
            active := rest
        | _ ->
            Log.warn (fun m -> m "maxmin scenario %d: LP not optimal" sid);
            List.iter (fun fid -> freeze fid 1.) !active;
            active := []
      done;
      (* SWAN pins the routing of a class before serving lower classes *)
      if freeze_routing then
        match !last_sol with
        | None -> ()
        | Some xs ->
            List.iter
              (fun k ->
                Array.iter
                  (Array.iter (fun v -> Simplex.set_bounds st v ~lb:xs.(v) ~ub:xs.(v)))
                  ctx.x.(k))
              group)
    groups;
  !results
