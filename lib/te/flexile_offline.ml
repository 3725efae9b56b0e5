module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex
module Mip = Flexile_lp.Mip
module Failure_model = Flexile_failure.Failure_model

let src = Logs.Src.create "flexile.offline" ~doc:"Flexile offline phase"

module Log = (val Logs.src_log src : Logs.LOG)

module Trace = Flexile_util.Trace

(* Observability: counters mirror the paper-facing accounting of
   Algorithm 1 (shared-cut and pruning accelerations of §4.3), timers
   split each iteration into its subproblem-sweep and master phases. *)
let c_subs = Trace.counter "flexile.subproblems_solved"
let c_cuts_gen = Trace.counter "flexile.cuts_generated"
let c_cuts_shared = Trace.counter "flexile.cuts_shared"
let c_pruned = Trace.counter "flexile.scenarios_pruned"
let c_flips = Trace.counter "flexile.hamming_flips"
let c_iters = Trace.counter "flexile.iterations"
let c_masters = Trace.counter "flexile.master_solves"

(* Why the Benders loop stopped: exactly one per [solve]. *)
let c_stop_gap_closed = Trace.counter "flexile.stop_gap_closed"
let c_stop_same_plan = Trace.counter "flexile.stop_same_plan"
let c_stop_max_iterations = Trace.counter "flexile.stop_max_iterations"
let c_stop_master_failed = Trace.counter "flexile.stop_master_failed"
let t_sweep = Trace.timer "flexile.subproblem_sweep"
let t_master = Trace.timer "flexile.master"

(* Hierarchical spans (Trace.in_span): the offline phase's span tree is
   offline > iteration[k] > {pruning, subproblem-sweep > scenario[i] >
   simplex, cut-sharing, master}; worker-side scenario spans root under
   parallel.shard on their own domain's track. *)
let sp_offline = Trace.span "offline"
let sp_iteration = Trace.span "offline.iteration"
let sp_pruning = Trace.span "offline.pruning"
let sp_sweep = Trace.span "offline.subproblem-sweep"
let sp_scenario = Trace.span "offline.scenario"
let sp_cut_sharing = Trace.span "offline.cut-sharing"
let sp_master = Trace.span "offline.master"

type config = {
  max_iterations : int;
  hamming_limit : int option;
  gamma : float option;
  share_cuts : bool;
  prune : bool;
  jobs : int;
}

(* The master's branch and bound stops on this node budget alone, so
   the plan does not depend on the host's speed. *)
let master_node_limit = 400

let default_config =
  {
    max_iterations = 5;
    hamming_limit = None;
    gamma = None;
    share_cuts = true;
    prune = true;
    (* 0 = auto: FLEXILE_JOBS or one worker domain per core.  The
       subproblem sweep shards scenarios over the Parallel pool; every
       scenario is a cold solve, so the result is bit-identical to
       jobs=1. *)
    jobs = 0;
  }

type iterate = {
  iteration : int;
  z : bool array array;
  losses : Instance.losses;
  penalty : float;
}

type result = {
  iterates : iterate list;
  best : iterate;
  lower_bound : float;
  subproblems_solved : int;
  wall_time : float;
}

(* A Benders cut: Penalty >= const(q') + sum_f coef_f * z_{f,q'},
   where const depends on the target scenario only through the
   capacity (and gamma) right-hand sides. *)
type dual_info = {
  coef : (int * float) array;  (** (fid, dual of the criticality row) *)
  fixed : float;  (** bound term + demand-row contribution *)
  cap_duals : (int * float) array;  (** (edge, dual of its capacity row) *)
  gamma_duals : (int * float) array;  (** (fid, dual of its gamma row) *)
}

type cut = Master_heuristic.cut = {
  target : int;
  coef : (int * float) array;
  const : float;
}

(* ------------------------------------------------------------------ *)
(* Subproblem template: one solver state, copied and set per scenario  *)
(* ------------------------------------------------------------------ *)

(* The subproblem LP of every scenario, compiled once per [solve] under
   the base demands into a solver state that never solves and is never
   written afterwards: each scenario solves a copy.  Across scenarios
   without demand factors only the RHS varies (the reformulation
   (17)-(18)), which is what makes one scenario's duals a valid cut for
   every other (cut sharing, eq. (22)). *)
type template = {
  st : Simplex.t;
  alpha_var : int array;  (** class -> its alpha var *)
  l_var : int array;  (** fid -> loss var or -1 *)
  loss_obj : float;  (** objective coefficient of every loss var *)
  crit_row : int array;  (** fid -> criticality row or -1 *)
  gamma_row : int array;  (** fid -> gamma row or -1 *)
  cap_row : int array;  (** edge -> capacity row or -1 *)
  demand_contrib : int array;  (** fid -> demand row or -1 *)
}

(* the RHS of a gamma row [l_f <= rhs] that bounds nothing *)
let gamma_inactive = 2.

(* §4.4: a flow connected in [sid] loses at most gamma plus the
   scenario's optimal ScenLoss; [None] where its gamma row is
   inactive *)
let gamma_bound inst (f : Instance.flow) ~sid ~scen_loss_opt ~gamma =
  match gamma with
  | Some gm when Instance.flow_connected inst f sid ->
      Some (Float.min 1. (gm +. scen_loss_opt.(sid)))
  | _ -> None

let build_template inst ~with_gamma =
  let nf = Instance.nflows inst in
  let model = Lp_model.create ~name:"flexile-sub" () in
  let alphas =
    Array.map
      (fun (c : Instance.cls) ->
        Lp_model.add_var model ~ub:1. ~obj:c.Instance.weight ())
      inst.Instance.classes
  in
  (* x over ALL tunnels: failed tunnels are killed by zeroed capacity *)
  let x = Routing.vars model inst in
  let l_var = Array.make nf (-1) in
  let crit_row = Array.make nf (-1) in
  let gamma_row = Array.make nf (-1) in
  let demand_contrib = Array.make nf (-1) in
  (* tiny secondary objective on losses: ties in alpha are broken
     toward serving every flow, so the subproblem's loss matrix is a
     meaningful achievable outcome (and a sane cap for the online
     phase), at the price of distorting the master bound by <= ~1e-3;
     the loss matrix itself is kept exact by [lexicographic_losses] *)
  let eps = 1e-3 /. float_of_int (max 1 nf) in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then begin
        let fid = f.Instance.fid in
        let demand = f.Instance.demand in
        let lv = Lp_model.add_var model ~ub:1. ~obj:eps () in
        l_var.(fid) <- lv;
        let coeffs =
          (lv, demand)
          :: Array.to_list
               (Array.map (fun v -> (v, 1.)) x.(f.Instance.cls).(f.Instance.pair))
        in
        demand_contrib.(fid) <- Lp_model.add_row model Lp_model.Ge demand coeffs;
        (* alpha - l_f >= z - 1, at z = 0 until a scenario sets it *)
        crit_row.(fid) <-
          Lp_model.add_row model Lp_model.Ge (-1.)
            [ (alphas.(f.Instance.cls), 1.); (lv, -1.) ];
        if with_gamma then
          (* l_f <= gamma + scenloss_q; rhs set per scenario *)
          gamma_row.(fid) <-
            Lp_model.add_row model Lp_model.Le gamma_inactive [ (lv, 1.) ]
      end)
    inst.Instance.flows;
  let cap_row = Routing.capacity_rows model inst x in
  {
    st = Simplex.make model;
    alpha_var = alphas;
    l_var;
    loss_obj = eps;
    crit_row;
    gamma_row;
    cap_row;
    demand_contrib;
  }

(* A copy of the template set to scenario [sid]: its demands and
   capacities ({!Routing.set_scenario}) and, in the same pass, the
   criticality rows of the flows [z] makes critical and the gamma rows
   of the connected flows.  Every other row keeps the template's RHS. *)
let scenario_state inst tpl ~sid ~z ~scen_loss_opt ~gamma =
  let st = Simplex.copy tpl.st in
  Routing.set_scenario st inst ~sid ~l:tpl.l_var ~demand_rows:tpl.demand_contrib
    ~cap_rows:tpl.cap_row ~flow:(fun f _ ->
      let fid = f.Instance.fid in
      if tpl.crit_row.(fid) >= 0 && z.(fid).(sid) then
        Simplex.set_rhs st tpl.crit_row.(fid) 0.;
      if tpl.gamma_row.(fid) >= 0 then
        Option.iter
          (Simplex.set_rhs st tpl.gamma_row.(fid))
          (gamma_bound inst f ~sid ~scen_loss_opt ~gamma));
  st

(* Extract the dual information needed for cuts (21)/(22). *)
let extract_dual inst tpl (sol : Simplex.solution) ~sid =
  let y = sol.Simplex.row_duals in
  let coef = ref [] and gamma_duals = ref [] in
  let fixed = ref sol.Simplex.bound_term in
  Array.iter
    (fun (f : Instance.flow) ->
      let fid = f.Instance.fid in
      if tpl.crit_row.(fid) >= 0 then begin
        let d = y.(tpl.crit_row.(fid)) in
        if Float.abs d > 1e-10 then coef := (fid, d) :: !coef
      end;
      if tpl.demand_contrib.(fid) >= 0 then
        fixed := !fixed +. (y.(tpl.demand_contrib.(fid)) *. Instance.demand_in inst f sid);
      if tpl.gamma_row.(fid) >= 0 then begin
        let d = y.(tpl.gamma_row.(fid)) in
        if Float.abs d > 1e-10 then gamma_duals := (fid, d) :: !gamma_duals
      end)
    inst.Instance.flows;
  let cap_duals = ref [] in
  Array.iteri
    (fun e row ->
      if row >= 0 && Float.abs y.(row) > 1e-10 then
        cap_duals := (e, y.(row)) :: !cap_duals)
    tpl.cap_row;
  {
    coef = Array.of_list !coef;
    fixed = !fixed;
    cap_duals = Array.of_list !cap_duals;
    gamma_duals = Array.of_list !gamma_duals;
  }

(* The loss tie-break can also trade penalty for loss sum: raising
   alpha by d pays whenever it lowers the summed losses by more than
   d / eps, and then every critical flow's loss sits above the
   scenario's optimum, breaking Proposition 1 for the loss matrix and
   for the online caps taken from it.  [st] holds the optimal basis of
   [sol] for the scenario; restarting from it, the penalty alone is
   re-optimized and, only when it comes out lower, the tie-break is
   re-solved with every class's alpha held at that optimum.  [st]
   keeps the changed bounds; [sol] itself still supplies the cut. *)
let lexicographic_losses inst tpl st (sol : Simplex.solution) =
  let set_loss_obj v =
    Array.iter (fun lv -> if lv >= 0 then Simplex.set_obj st lv v) tpl.l_var
  in
  let penalty =
    Array.fold_left ( +. ) 0.
      (Array.mapi
         (fun k av -> inst.Instance.classes.(k).Instance.weight *. sol.Simplex.x.(av))
         tpl.alpha_var)
  in
  set_loss_obj 0.;
  let pure = Simplex.solve_warm st in
  set_loss_obj tpl.loss_obj;
  if
    pure.Simplex.status <> Simplex.Optimal
    || penalty <= pure.Simplex.obj +. 1e-9
  then sol
  else begin
    Array.iter
      (fun av -> Simplex.set_bounds st av ~lb:0. ~ub:pure.Simplex.x.(av))
      tpl.alpha_var;
    let lex = Simplex.solve_warm st in
    if lex.Simplex.status = Simplex.Optimal then lex else sol
  end

(* Instantiate a dual certificate as a cut for a target scenario. *)
let cut_for inst di ~target ~scen_loss_opt ~gamma =
  let const = ref di.fixed in
  Array.iter
    (fun (e, d) ->
      let cap = Instance.edge_capacity inst ~sid:target e in
      const := !const +. (d *. cap))
    di.cap_duals;
  Array.iter
    (fun (fid, d) ->
      let bound =
        Option.value ~default:gamma_inactive
          (gamma_bound inst inst.Instance.flows.(fid) ~sid:target ~scen_loss_opt ~gamma)
      in
      const := !const +. (d *. bound))
    di.gamma_duals;
  (* criticality rows contribute d * (z - 1) *)
  Array.iter (fun (_, d) -> const := !const -. d) di.coef;
  { target; coef = di.coef; const = !const }

(* ------------------------------------------------------------------ *)
(* Master problem                                                      *)
(* ------------------------------------------------------------------ *)

(* z variables exist only for (flow, scenario) pairs where the flow is
   connected, has demand, the scenario is not perfect, AND the pair
   carries a nonzero coefficient in some cut.  Everywhere else being
   critical is free under every cut learned so far, so z is fixed to 1
   and folded into the coverage RHS.  Perfect-scenario elimination plus
   this cut-support restriction is what keeps the master tiny even for
   two-class instances with tens of thousands of (flow, scenario)
   combinations. *)
let solve_master inst ~config ~cuts ~z_prev ~coverage_target ~perfect =
  let nf = Instance.nflows inst and nq = Instance.nscenarios inst in
  let in_cuts = Hashtbl.create 256 in
  List.iter
    (fun c ->
      Array.iter
        (fun (fid, d) ->
          if Float.abs d > 1e-10 then Hashtbl.replace in_cuts (fid, c.target) ())
        c.coef)
    cuts;
  let model = Lp_model.create ~name:"flexile-master" () in
  let wsum =
    Array.fold_left
      (fun a (c : Instance.cls) -> a +. c.Instance.weight)
      0. inst.Instance.classes
  in
  (* headroom above wsum: subproblem objectives include the tiny
     loss-refinement term, so cuts can slightly exceed the pure
     penalty range *)
  let penalty = Lp_model.add_var model ~ub:(wsum +. 0.01) ~obj:1. () in
  let zv = Array.make_matrix nf nq (-1) in
  let binaries = ref [] in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then begin
        let fid = f.Instance.fid in
        let fixed_mass = ref 0. in
        for q = 0 to nq - 1 do
          if Instance.flow_connected inst f q then
            if perfect.(q) || not (Hashtbl.mem in_cuts (fid, q)) then
              fixed_mass :=
                !fixed_mass +. inst.Instance.scenarios.(q).Failure_model.prob
            else begin
              (* minuscule reward for keeping scenarios critical: the
                 master should never drop a scenario gratuitously
                 (robustness to probability estimation error, §4.4) *)
              zv.(fid).(q) <-
                Lp_model.add_var model ~ub:1.
                  ~obj:(-1e-7 *. inst.Instance.scenarios.(q).Failure_model.prob)
                  ();
              binaries := zv.(fid).(q) :: !binaries
            end
        done;
        let coeffs =
          List.filter_map
            (fun q ->
              if zv.(fid).(q) >= 0 then
                Some
                  ( zv.(fid).(q),
                    inst.Instance.scenarios.(q).Failure_model.prob )
              else None)
            (List.init nq (fun q -> q))
        in
        let rhs = coverage_target.(fid) -. !fixed_mass in
        if coeffs <> [] then ignore (Lp_model.add_row model Lp_model.Ge rhs coeffs)
      end)
    inst.Instance.flows;
  List.iter
    (fun c ->
      let coeffs =
        (penalty, 1.)
        :: (Array.to_list c.coef
           |> List.filter_map (fun (fid, d) ->
                  if zv.(fid).(c.target) >= 0 then
                    Some (zv.(fid).(c.target), -.d)
                  else None))
      in
      (* account for z fixed to 0 (disconnected): those terms vanish *)
      ignore (Lp_model.add_row model Lp_model.Ge c.const coeffs))
    cuts;
  (match config.hamming_limit with
  | None -> ()
  | Some limit ->
      let coeffs = ref [] and ones = ref 0 in
      Array.iter
        (fun (f : Instance.flow) ->
          let fid = f.Instance.fid in
          for q = 0 to nq - 1 do
            if zv.(fid).(q) >= 0 then
              if z_prev.(fid).(q) then begin
                incr ones;
                coeffs := (zv.(fid).(q), -1.) :: !coeffs
              end
              else coeffs := (zv.(fid).(q), 1.) :: !coeffs
          done)
        inst.Instance.flows;
      ignore
        (Lp_model.add_row model Lp_model.Le
           (float_of_int (limit - !ones))
           !coeffs));
  (* Rounding heuristic (Master_heuristic): round the LP relaxation,
     repair per-flow coverage greedily, then locally improve by turning
     off the costliest critical flags in the scenarios driving the max
     cut.  Respects the Hamming budget when one is configured. *)
  let heuristic =
    Master_heuristic.create
      ~prob:
        (Array.map
           (fun (s : Failure_model.scenario) -> s.Failure_model.prob)
           inst.Instance.scenarios)
      ~active:
        (Array.map
           (fun (f : Instance.flow) -> f.Instance.demand > 0.)
           inst.Instance.flows)
      ~coverage_target ~perfect ~z_prev ~zv ~cuts ~penalty
      ~nvars:(Lp_model.nvars model) ~hamming_limit:config.hamming_limit
  in
  let r =
    Mip.solve ~node_limit:master_node_limit
      ~heuristic:(Master_heuristic.run heuristic)
      ~binaries:(Array.of_list !binaries) model
  in
  match r.Mip.status with
  | Mip.Optimal | Mip.Feasible ->
      let z = Array.make_matrix nf nq false in
      Array.iter
        (fun (f : Instance.flow) ->
          let fid = f.Instance.fid in
          if f.Instance.demand > 0. then
            for q = 0 to nq - 1 do
              if zv.(fid).(q) >= 0 then z.(fid).(q) <- r.Mip.x.(zv.(fid).(q)) > 0.5
              else if Instance.flow_connected inst f q then
                (* fixed critical: perfect scenario or no cut mentions it *)
                z.(fid).(q) <- true
            done)
        inst.Instance.flows;
      Some (z, r.Mip.bound)
  | Mip.Infeasible | Mip.Limit -> None

(* ------------------------------------------------------------------ *)
(* Main loop (Algorithm 1)                                             *)
(* ------------------------------------------------------------------ *)

let achieved_penalty inst losses = Metrics.total_weighted_penalty inst losses

let solve ?(config = default_config) inst =
  Trace.in_span sp_offline @@ fun () ->
  let t0 = Trace.now_s () in
  let nf = Instance.nflows inst and nq = Instance.nscenarios inst in
  let scen_loss_opt =
    match config.gamma with
    | Some _ -> Scenbest.scen_loss_optimal ~jobs:config.jobs inst
    | None -> Array.make nq 0.
  in
  (* compiled here, in the calling domain; workers only read it *)
  let tpl = build_template inst ~with_gamma:(config.gamma <> None) in
  let coverage_target =
    Array.map
      (fun (f : Instance.flow) ->
        if f.Instance.demand > 0. then
          Float.min
            inst.Instance.classes.(f.Instance.cls).Instance.beta
            (Instance.connected_mass inst f)
          -. 1e-9
        else 0.)
      inst.Instance.flows
  in
  (* starting point: critical wherever connected *)
  let z =
    Array.init nf (fun fid ->
        let f = inst.Instance.flows.(fid) in
        Array.init nq (fun q ->
            f.Instance.demand > 0. && Instance.flow_connected inst f q))
  in
  let losses = Instance.alloc_losses inst in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand <= 0. then
        Array.fill losses.(f.Instance.fid) 0 nq 0.)
    inst.Instance.flows;
  let cuts = ref [] in
  let perfect = Array.make nq false in
  let last_z_col = Array.make nq None in
  let duals_pool = ref [] in
  let subproblems = ref 0 in
  (* with per-scenario traffic matrices the LP's left-hand side varies,
     so cross-scenario cuts do not apply *)
  let share_cuts =
    config.share_cuts && inst.Instance.demand_factors = None
  in
  (* Worker-side subproblem solve: a cold solve of the scenario's own
     solver state.  It reads [z]/[scen_loss_opt] (frozen during a sweep) and
     returns the scenario's loss column plus the dual certificate; all
     bookkeeping mutation happens in the merge loop below, in ascending
     scenario order. *)
  let solve_scenario sid =
    Trace.in_span ~arg:sid sp_scenario @@ fun () ->
    let st = scenario_state inst tpl ~sid ~z ~scen_loss_opt ~gamma:config.gamma in
    let sol = Simplex.solve_warm st in
    match sol.Simplex.status with
    | Simplex.Optimal ->
        let lex = lexicographic_losses inst tpl st sol in
        let loss_col =
          Array.to_list inst.Instance.flows
          |> List.filter_map (fun (f : Instance.flow) ->
                 let fid = f.Instance.fid in
                 if tpl.l_var.(fid) >= 0 then
                   Some
                     ( fid,
                       Float.max 0.
                         (Float.min 1. lex.Simplex.x.(tpl.l_var.(fid))) )
                 else None)
        in
        let di = extract_dual inst tpl sol ~sid in
        Some (sol.Simplex.obj, loss_col, di)
    | _ -> None
  in
  let iterates = ref [] in
  let stopwatch = ref (Trace.now_s ()) in
  let lap what =
    let now = Trace.now_s () in
    Log.info (fun m -> m "%s took %.2fs" what (now -. !stopwatch));
    stopwatch := now
  in
  let record iteration =
    let it =
      {
        iteration;
        z = Array.map Array.copy z;
        losses = Array.map Array.copy losses;
        penalty = achieved_penalty inst losses;
      }
    in
    iterates := it :: !iterates;
    it
  in
  let master_bound = ref 0. in
  (* Algorithm 1's stop rule: the best achieved penalty meets the
     master's lower bound.  Tested before a master solve, whose bound
     could then only be discarded, and after one, which saves a sweep. *)
  let gap_closed () =
    let best_so_far =
      List.fold_left (fun a it -> Float.min a it.penalty) infinity !iterates
    in
    best_so_far <= !master_bound +. 1e-7
  in
  let iteration = ref 0 in
  let stop = ref None in
  while Option.is_none !stop do
    Trace.in_span ~arg:!iteration sp_iteration @@ fun () ->
    (* --- subproblem sweep: domain-parallel over scenario shards --- *)
    duals_pool := [];
    let cols =
      Trace.in_span sp_pruning (fun () ->
          Array.init nq (fun sid -> Array.init nf (fun fid -> z.(fid).(sid))))
    in
    let keep sid =
      let unchanged =
        config.prune
        && (match last_z_col.(sid) with
           | Some c -> c = cols.(sid)
           | None -> false)
      in
      not ((config.prune && perfect.(sid)) || unchanged)
    in
    Trace.incr c_iters;
    let results =
      Trace.in_span sp_sweep (fun () ->
          Trace.with_span t_sweep (fun () ->
              Scenario_engine.sweep_some ~jobs:config.jobs inst ~keep
                ~f:solve_scenario))
    in
    (* deterministic merge, ascending scenario order: losses, pruning
       state, the cut list and the shared-dual pool come out identical
       to the sequential sweep *)
    Array.iteri
      (fun sid outcome ->
        match outcome with
        | None -> Trace.incr c_pruned
        | Some attempt -> (
            incr subproblems;
            Trace.incr c_subs;
            match attempt with
            | Some (obj, loss_col, di) ->
                last_z_col.(sid) <- Some cols.(sid);
                List.iter
                  (fun (fid, v) -> losses.(fid).(sid) <- v)
                  loss_col;
                if obj <= 1e-9 && !iteration = 0 then perfect.(sid) <- true
                else begin
                  Trace.incr c_cuts_gen;
                  cuts :=
                    cut_for inst di ~target:sid ~scen_loss_opt
                      ~gamma:config.gamma
                    :: !cuts;
                  if List.length !duals_pool < 4 then
                    duals_pool := di :: !duals_pool
                end
            | None ->
                Log.warn (fun m -> m "subproblem %d did not solve" sid)))
      results;
    (* cut sharing: certificates from solved scenarios bound the rest *)
    if share_cuts then
      Trace.in_span sp_cut_sharing (fun () ->
          List.iter
            (fun di ->
              for sid = 0 to nq - 1 do
                if perfect.(sid) then ()
                else begin
                  Trace.incr c_cuts_shared;
                  cuts :=
                    cut_for inst di ~target:sid ~scen_loss_opt
                      ~gamma:config.gamma
                    :: !cuts
                end
              done)
            !duals_pool);
    lap (Printf.sprintf "iteration %d subproblem sweep" !iteration);
    let it = record !iteration in
    Log.info (fun m ->
        m "iteration %d: penalty %.4f (%d cuts)" !iteration it.penalty
          (List.length !cuts));
    incr iteration;
    if gap_closed () then stop := Some c_stop_gap_closed
    else if !iteration >= config.max_iterations then
      stop := Some c_stop_max_iterations
    else begin
      (* keep only the most recent few cuts per target scenario to keep
         the master lean *)
      let kept = Hashtbl.create nq in
      let pruned_cuts =
        List.filter
          (fun c ->
            let n = try Hashtbl.find kept c.target with Not_found -> 0 in
            if n >= 3 then false
            else begin
              Hashtbl.replace kept c.target (n + 1);
              true
            end)
          !cuts
      in
      cuts := pruned_cuts;
      Trace.incr c_masters;
      match
        Trace.in_span sp_master (fun () ->
            Trace.with_span t_master (fun () ->
                solve_master inst ~config ~cuts:pruned_cuts ~z_prev:z
                  ~coverage_target ~perfect))
      with
      | None ->
          Log.warn (fun m -> m "master did not produce a solution; stopping");
          stop := Some c_stop_master_failed
      | Some (z_new, bound) ->
          (* under a Hamming row the master is optimal only inside its
             trust region, so its bound is no bound on the penalty *)
          if Option.is_none config.hamming_limit then
            master_bound := Float.max !master_bound bound;
          let flips = ref 0 in
          for fid = 0 to nf - 1 do
            for q = 0 to nq - 1 do
              if z_new.(fid).(q) <> z.(fid).(q) then incr flips
            done;
            Array.blit z_new.(fid) 0 z.(fid) 0 nq
          done;
          Trace.add c_flips !flips;
          if gap_closed () then stop := Some c_stop_gap_closed
          else if !flips = 0 then stop := Some c_stop_same_plan
    end
  done;
  Option.iter Trace.incr !stop;
  let iterates = List.rev !iterates in
  let best =
    List.fold_left
      (fun acc it -> if it.penalty < acc.penalty then it else acc)
      (List.hd iterates) iterates
  in
  {
    iterates;
    best;
    lower_bound = !master_bound;
    subproblems_solved = !subproblems;
    wall_time = Trace.now_s () -. t0;
  }
