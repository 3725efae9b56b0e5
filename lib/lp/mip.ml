module Trace = Flexile_util.Trace

(* Per search: node LPs solved, nodes left open, nodes dropped with an
   unbounded or cut-short LP or an optimal point that breaks the node's
   constraints, and why it stopped (exactly one of the two stop
   counters).  A search that ran out of nodes to explore but
   dropped some reads [stop_exhausted] with a nonzero [nodes_dropped]. *)
let c_nodes = Trace.counter "mip.nodes"
let c_open_at_stop = Trace.counter "mip.open_nodes_at_stop"
let c_nodes_dropped = Trace.counter "mip.nodes_dropped"
let c_stop_exhausted = Trace.counter "mip.stop_exhausted"
let c_stop_node_limit = Trace.counter "mip.stop_node_limit"

(* The rounding heuristic, per node: splits the search's own time into
   heuristic and bookkeeping. *)
let t_heuristic = Trace.timer "mip.heuristic"

type status = Optimal | Feasible | Infeasible | Limit

type result = {
  status : status;
  obj : float;
  x : float array;
  bound : float;
  nodes : int;
  gap : float;
}

(* An incumbent within [gap_tol] of the bound is optimal; a value within
   [int_tol] of an integer is integral; a point within [feas_tol] of
   every bound and row is feasible. *)
let gap_tol = 1e-6
let int_tol = 1e-6
let feas_tol = 1e-6

(* A node is the list of (binary variable, fixed value) decisions on the
   path from the root, plus the parent's LP bound for pruning. *)
type node = { fixings : (Lp_model.var * float) list; parent_bound : float }

let is_integral x binaries =
  Array.for_all
    (fun j ->
      let v = x.(j) in
      Float.abs (v -. Float.round v) <= int_tol)
    binaries

let most_fractional x binaries =
  let best = ref (-1) and best_frac = ref int_tol in
  Array.iter
    (fun j ->
      let v = x.(j) in
      let frac = Float.abs (v -. Float.round v) in
      if frac > !best_frac then begin
        best := j;
        best_frac := frac
      end)
    binaries;
  !best

let solve ?(node_limit = 5000) ?heuristic ~binaries model =
  let nv = Lp_model.nvars model in
  (* one solver state for every node LP: each node cold-solves it under
     its own fixings, set on the state and undone after the solve *)
  let lp_state = Simplex.make model in
  Array.iter (fun j -> Simplex.set_bounds lp_state j ~lb:0. ~ub:1.) binaries;
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let nodes = ref 0 in
  let stack = ref [ { fixings = []; parent_bound = neg_infinity } ] in
  let hit_limit = ref false in
  let stop = ref c_stop_exhausted in
  (* smallest parent bound of a node whose LP was never bounded
     (unbounded or cut short): it stays in the frontier, so the search
     cannot read as exhausted *)
  let dropped_bound = ref None in
  let frontier_bound () =
    List.fold_left
      (fun acc nd -> Float.min acc nd.parent_bound)
      (Option.value !dropped_bound ~default:infinity)
      !stack
  in
  let drop nd =
    hit_limit := true;
    Trace.incr c_nodes_dropped;
    dropped_bound :=
      Some
        (Float.min nd.parent_bound
           (Option.value !dropped_bound ~default:infinity))
  in
  let try_incumbent x obj =
    if obj < !incumbent_obj -. 1e-12 then begin
      incumbent := Some (Array.copy x);
      incumbent_obj := obj
    end
  in
  let check_heuristic lp_x =
    match heuristic with
    | None -> ()
    | Some h -> (
        match Trace.with_span t_heuristic (fun () -> h lp_x) with
        | None -> ()
        | Some cand ->
            if
              Array.length cand = nv
              && is_integral cand binaries
              && Simplex.max_violation lp_state cand <= feas_tol
            then try_incumbent cand (Lp_model.objective_value model cand))
  in
  let best_proven = ref neg_infinity in
  (try
     while !stack <> [] do
       (match !stack with
       | [] -> ()
       | nd :: rest ->
           stack := rest;
           if !nodes >= node_limit then begin
             hit_limit := true;
             stop := c_stop_node_limit;
             (* keep the node's bound contributing to the frontier bound *)
             stack := nd :: !stack;
             raise Exit
           end;
           if nd.parent_bound < !incumbent_obj -. gap_tol then begin
             incr nodes;
             List.iter
               (fun (j, v) -> Simplex.set_bounds lp_state j ~lb:v ~ub:v)
               nd.fixings;
             let lp = Simplex.solve_cold lp_state in
             (* an optimal basis whose point breaks the node's own
                bounds or rows proves no bound: dropped as cut short *)
             let broken =
               lp.Simplex.status = Simplex.Optimal
               && Simplex.max_violation lp_state lp.Simplex.x > feas_tol
             in
             List.iter
               (fun (j, _) -> Simplex.set_bounds lp_state j ~lb:0. ~ub:1.)
               nd.fixings;
             match lp.Simplex.status with
             | Simplex.Infeasible -> ()
             | Simplex.Unbounded | Simplex.Iteration_limit -> drop nd
             | Simplex.Optimal when broken -> drop nd
             | Simplex.Optimal ->
                 if lp.Simplex.obj < !incumbent_obj -. gap_tol then begin
                   if nd.fixings = [] then
                     best_proven := lp.Simplex.obj;
                   if is_integral lp.Simplex.x binaries then begin
                     (* snap and accept *)
                     let xi = Array.copy lp.Simplex.x in
                     Array.iter
                       (fun j -> xi.(j) <- Float.round xi.(j))
                       binaries;
                     try_incumbent xi lp.Simplex.obj
                   end
                   else begin
                     check_heuristic lp.Simplex.x;
                     let j = most_fractional lp.Simplex.x binaries in
                     if j >= 0 then begin
                       let v = lp.Simplex.x.(j) in
                       let first = if v >= 0.5 then 1. else 0. in
                       let mk fv =
                         {
                           fixings = (j, fv) :: nd.fixings;
                           parent_bound = lp.Simplex.obj;
                         }
                       in
                       (* DFS: explore the rounded side first *)
                       stack := mk first :: mk (1. -. first) :: !stack
                     end
                   end
                 end
           end)
     done
   with Exit -> ());
  Trace.add c_nodes !nodes;
  Trace.add c_open_at_stop (List.length !stack);
  Trace.incr !stop;
  let frontier = frontier_bound () in
  let bound =
    if !stack = [] && !dropped_bound = None then
      (* search exhausted: the incumbent (if any) is optimal *)
      if !incumbent = None then infinity else !incumbent_obj
    else Float.max !best_proven (Float.min frontier !incumbent_obj)
  in
  match !incumbent with
  | Some x ->
      let gap = Float.max 0. (!incumbent_obj -. bound) in
      let status =
        if !dropped_bound = None && ((not !hit_limit) || gap <= gap_tol)
        then Optimal
        else Feasible
      in
      { status; obj = !incumbent_obj; x; bound; nodes = !nodes; gap }
  | None ->
      let status = if !hit_limit then Limit else Infeasible in
      {
        status;
        obj = infinity;
        x = Array.make nv 0.;
        bound;
        nodes = !nodes;
        gap = infinity;
      }
