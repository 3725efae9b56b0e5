module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex
module Graph = Flexile_net.Graph

let src = Logs.Src.create "flexile.te" ~doc:"TE schemes"

module Log = (val Logs.src_log src : Logs.LOG)

(* The arc-path LP of an instance, compiled once: every tunnel, the loss
   variable, coverage row and level row of every positive-demand flow,
   the capacity row of every edge some tunnel crosses, and the max-min
   level variable [lambda] (objective 1).  Under its nominal settings
   every tunnel is alive, capacities and demands are the base ones and
   every level row is inactive; a scenario changes only bounds, RHS and
   demand coefficients.  Never written after [compile]. *)
type template = {
  base : Lp_model.t;
  tx : Lp_model.var array array array;
  tl : Lp_model.var array;
  tlambda : Lp_model.var;
  demand_rows : Lp_model.row array;
  tcap_rows : Lp_model.row array;
  tlevel_rows : Lp_model.row array;
  nominal : Simplex.basis option;
}

type Instance.memo += Template of template

type ctx = {
  inst : Instance.t;
  sid : int;
  model : Lp_model.t;
  x : Lp_model.var array array array;
  l : Lp_model.var array;
  lambda : Lp_model.var;
  cap_rows : Lp_model.row array;
  level_rows : Lp_model.row array;
  nominal : Simplex.basis option;
}

(* A level row [lambda - l_f >= rhs] is active at RHS 0 and inactive at
   -2, where it always holds since l <= 1 <= lambda + 2. *)
let level_active = 0.
let level_inactive = -2.

(* The restart point of every scenario: an optimal basis of the nominal
   template, where every level row is inactive, so lambda = 0 and the
   basis is a feasible routing of the base demands.  On the failover
   replay of IBM two-class this start takes ~15% fewer dual pivots
   than the min-max-loss optimum over all flows.  The solve only reads
   the model. *)
let nominal_basis model =
  let st = Simplex.make model in
  ignore (Simplex.solve_warm st);
  Simplex.basis st

let compile inst =
  let g = inst.Instance.graph in
  let model = Lp_model.create ~name:"scen-template" () in
  let x =
    Array.mapi
      (fun k per_pair ->
        Array.mapi
          (fun i ts ->
            Array.mapi
              (fun ti _ ->
                Lp_model.add_var model ~name:(Printf.sprintf "x_%d_%d_%d" k i ti) ())
              ts)
          per_pair)
      inst.Instance.tunnels
  in
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
  let per_edge = Array.make (Graph.nedges g) [] in
  Array.iteri
    (fun k per_pair ->
      Array.iteri
        (fun i ts ->
          Array.iteri
            (fun ti (tun : Flexile_net.Tunnels.t) ->
              Array.iter
                (fun e -> per_edge.(e) <- (x.(k).(i).(ti), 1.) :: per_edge.(e))
                tun.Flexile_net.Tunnels.path)
            ts)
        per_pair)
    inst.Instance.tunnels;
  let cap_rows =
    Array.mapi
      (fun e coeffs ->
        if coeffs = [] then -1
        else Lp_model.add_row model Lp_model.Le g.Graph.edges.(e).Graph.capacity coeffs)
      per_edge
  in
  let level_rows =
    Array.map
      (fun lv ->
        if lv < 0 then -1
        else Lp_model.add_row model Lp_model.Ge level_inactive [ (lambda, 1.); (lv, -1.) ])
      l
  in
  (* the matrix views are built here, before the template is shared *)
  ignore (Lp_model.csc model);
  ignore (Lp_model.csr model);
  {
    base = model;
    tx = x;
    tl = l;
    tlambda = lambda;
    demand_rows;
    tcap_rows = cap_rows;
    tlevel_rows = level_rows;
    nominal = nominal_basis model;
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
  let model = Lp_model.copy tpl.base in
  let live = Array.make (Array.length tpl.tcap_rows) false in
  Array.iteri
    (fun k per_pair ->
      Array.iteri
        (fun i ts ->
          let alive = inst.Instance.alive_tunnels.(sid).(k).(i) in
          let next = ref 0 in
          Array.iteri
            (fun ti (tun : Flexile_net.Tunnels.t) ->
              if !next < Array.length alive && alive.(!next) = ti then begin
                incr next;
                Array.iter (fun e -> live.(e) <- true) tun.Flexile_net.Tunnels.path
              end
              else Lp_model.set_bounds model tpl.tx.(k).(i).(ti) ~lb:0. ~ub:0.)
            ts)
        per_pair)
    inst.Instance.tunnels;
  Array.iter
    (fun (f : Instance.flow) ->
      let fid = f.Instance.fid in
      let lv = tpl.tl.(fid) and row = tpl.demand_rows.(fid) in
      if lv >= 0 then begin
        let d = Instance.demand_in inst f sid in
        if d <= 0. then begin
          (* nothing requested in this scenario: loss pinned to 0 *)
          Lp_model.set_bounds model lv ~lb:0. ~ub:0.;
          Lp_model.set_rhs model row 0.
        end
        else begin
          if not (Instance.flow_connected inst f sid) then
            Lp_model.set_bounds model lv ~lb:1. ~ub:1.;
          if not (Float.equal d f.Instance.demand) then begin
            Lp_model.set_rhs model row d;
            Lp_model.set_coef model row lv d
          end
        end
      end)
    inst.Instance.flows;
  let cap_rows =
    Array.mapi
      (fun e row ->
        if row >= 0 then Lp_model.set_rhs model row (Instance.edge_capacity inst ~sid e);
        if live.(e) then row else -1)
      tpl.tcap_rows
  in
  {
    inst;
    sid;
    model;
    x = tpl.tx;
    l = tpl.tl;
    lambda = tpl.tlambda;
    cap_rows;
    level_rows = tpl.tlevel_rows;
    nominal = tpl.nominal;
  }

(* Solver state for one call, seeded with the nominal basis.  It is
   never kept: everything an allocation computes comes from (instance,
   scenario, frozen set). *)
let solver ctx = Simplex.make ?basis:ctx.nominal ctx.model

let min_max_loss ctx ~flows =
  Array.iter
    (fun (f : Instance.flow) ->
      let r = ctx.level_rows.(f.Instance.fid) in
      if r >= 0 && flows f then Lp_model.set_rhs ctx.model r level_active)
    ctx.inst.Instance.flows;
  let sol = Simplex.solve_warm (solver ctx) in
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

(* SWAN-style max-min on flow loss over the scenario's template.  Each
   level activates the level rows of the flows still active and
   re-optimizes from the previous level's basis (the first level from
   the nominal basis); freezing a flow caps its loss and deactivates
   its row. *)
let maxmin ~cold inst ~sid ~class_order ?(merge_classes = false)
    ?(freeze_routing = false) ?(prefrozen = []) ?(max_levels = 12) ?duals () =
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
  let model = ctx.model and lambda = ctx.lambda and level_rows = ctx.level_rows in
  let solve =
    if cold then fun () -> Simplex.solve model
    else
      let st = solver ctx in
      fun () -> Simplex.solve_warm st
  in
  let participating =
    Array.to_list inst.Instance.flows
    |> List.filter (fun (f : Instance.flow) ->
           f.Instance.demand > 0. && List.mem f.Instance.cls class_order)
  in
  List.iter
    (fun (fid, cap) ->
      if ctx.l.(fid) >= 0 && Lp_model.lb model ctx.l.(fid) <= cap then
        Lp_model.set_bounds model ctx.l.(fid) ~lb:(Lp_model.lb model ctx.l.(fid))
          ~ub:(Float.min 1. cap))
    prefrozen;
  let results = ref [] in
  let freeze fid v =
    if ctx.l.(fid) >= 0 then begin
      let lb = Lp_model.lb model ctx.l.(fid) in
      let ub = Float.min (Lp_model.ub model ctx.l.(fid)) (Float.max lb v) in
      Lp_model.set_bounds model ctx.l.(fid) ~lb ~ub;
      Lp_model.set_rhs model level_rows.(fid) level_inactive;
      results := (fid, ub) :: !results
    end
    else results := (fid, v) :: !results
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
      List.iter (fun fid -> Lp_model.set_rhs model level_rows.(fid) level_active) !active;
      let level = ref 0 in
      let last_lambda = ref 1. in
      let last_sol = ref None in
      while !active <> [] && !level < max_levels do
        incr level;
        let sol = solve () in
        match sol.Simplex.status with
        | Simplex.Optimal ->
            capture sol;
            last_sol := Some sol.Simplex.x;
            let lam = Float.max 0. sol.Simplex.x.(lambda) in
            last_lambda := lam;
            if lam <= 1e-7 then begin
              List.iter (fun fid -> freeze fid 0.) !active;
              active := []
            end
            else begin
              (* freeze the flows whose level rows are dual-binding:
                 they are the ones that cannot do better than lam *)
              let stuck, rest =
                List.partition
                  (fun fid ->
                    sol.Simplex.row_duals.(level_rows.(fid)) > 1e-9)
                  !active
              in
              if stuck <> [] then begin
                List.iter (fun fid -> freeze fid lam) stuck;
                active := rest
              end
              else begin
                (* degenerate duals: fall back to the identification LP
                   (minimize total active loss at level lam) *)
                Lp_model.set_obj model lambda 0.;
                Lp_model.set_bounds model lambda ~lb:0. ~ub:lam;
                List.iter
                  (fun fid -> Lp_model.set_obj model ctx.l.(fid) 1.)
                  !active;
                let sol2 = solve () in
                (match sol2.Simplex.status with
                | Simplex.Optimal -> last_sol := Some sol2.Simplex.x
                | _ -> ());
                List.iter
                  (fun fid -> Lp_model.set_obj model ctx.l.(fid) 0.)
                  !active;
                Lp_model.set_obj model lambda 1.;
                Lp_model.set_bounds model lambda ~lb:0. ~ub:1.;
                let stuck, rest =
                  match sol2.Simplex.status with
                  | Simplex.Optimal ->
                      List.partition
                        (fun fid -> sol2.Simplex.x.(ctx.l.(fid)) >= lam -. 1e-6)
                        !active
                  | _ -> (!active, [])
                in
                let stuck = if stuck = [] then !active else stuck in
                List.iter (fun fid -> freeze fid lam) stuck;
                active :=
                  (match sol2.Simplex.status with
                  | Simplex.Optimal -> rest
                  | _ -> [])
              end
            end
        | _ ->
            Log.warn (fun m -> m "maxmin scenario %d: LP not optimal" sid);
            List.iter (fun fid -> freeze fid 1.) !active;
            active := []
      done;
      (* level budget exhausted: freeze the rest at the last level *)
      List.iter (fun fid -> freeze fid !last_lambda) !active;
      (* SWAN pins the routing of a class before serving lower classes *)
      if freeze_routing then
        match !last_sol with
        | None -> ()
        | Some xs ->
            List.iter
              (fun k ->
                Array.iter
                  (Array.iter (fun v -> Lp_model.set_bounds model v ~lb:xs.(v) ~ub:xs.(v)))
                  ctx.x.(k))
              group)
    groups;
  !results

let maxmin_losses = maxmin ~cold:false
let maxmin_losses_cold = maxmin ~cold:true
