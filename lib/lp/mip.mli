(** Branch-and-bound for mixed-integer programs whose integer variables
    are binary (the only kind appearing in the paper's formulations:
    the critical-scenario indicators [z] of formulation (I) and of the
    master problem (M)).

    The search is depth-first with best-bound pruning, an optional
    rounding heuristic for incumbents, and a node budget.  It reads no
    clock: its answer depends only on the model and the budget.  When
    the budget is spent the best incumbent is returned together with
    the best proven lower bound, so callers can report an optimality
    gap.

    A node whose LP relaxation reads [Unbounded], stops at its
    iteration limit, or ends [Optimal] at a point that breaks the
    node's bounds or rows by more than 1e-6 (a degenerate pivot on a
    tiny element can leave one) is dropped unbounded: it counts as a
    limit, and its parent's bound stays in the frontier.  Such a
    search ends [Feasible] or [Limit], never [Optimal] or
    [Infeasible], and the trace counter [mip.nodes_dropped] counts the
    dropped nodes, so a search cut by a dropped node is told apart from
    one that exhausted its tree (both stop with [mip.stop_exhausted]).

    A search makes one [Simplex] state.  Each node sets its fixings on
    that state, solves it cold from slack ([Simplex.solve_cold]) and
    undoes them: the node LP pivots and answers exactly as a fresh
    [Simplex.solve] would, without building a state per node.
    The trace timer [mip.heuristic] times the rounding heuristic. *)

type status =
  | Optimal  (** incumbent proven optimal (absolute gap within 1e-6) *)
  | Feasible  (** limit hit with an incumbent available *)
  | Infeasible
  | Limit  (** limit hit with no incumbent *)

type result = {
  status : status;
  obj : float;  (** incumbent objective (minimization) *)
  x : float array;  (** incumbent primal values *)
  bound : float;  (** best proven lower bound *)
  nodes : int;
  gap : float;  (** [obj - bound], 0. when optimal *)
}

val solve :
  ?node_limit:int ->
  ?heuristic:(float array -> float array option) ->
  binaries:Lp_model.var array ->
  Lp_model.t ->
  result
(** [solve ~binaries model] minimizes [model] with the given variables
    constrained to {0,1}.  [heuristic lp_x] may propose a full primal
    assignment from a fractional relaxation solution; it is checked for
    integrality and feasibility before being accepted as an incumbent,
    and an accepted candidate is copied.  A candidate is read only
    before the next call of [heuristic], so the heuristic may return
    the same buffer, rewritten, every time.  The search stops after
    [node_limit] node LPs (default 5000).  The model is only read. *)
