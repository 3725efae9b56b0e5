(** Two-phase bounded-variable revised primal simplex, with a dual
    simplex for warm restarts after bound and right-hand-side changes.

    The basis is held LU-factorized ([Sparse.Basis]) and advanced by
    product-form eta updates.  Each pivot's FTRAN column and BTRAN row
    carry their ascending nonzero patterns, and the ratio test, the
    basic-value and bound-flip updates, the eta append and the
    pivot-row product walk those patterns, never all rows; every pivot
    is the one the full sweeps would choose (DESIGN.md section 11).
    It produces dual certificates: row
    duals, reduced costs, and a parametric lower bound usable as a
    Benders cut when only the RHS varies (the reformulation (17)–(18)
    of the paper).  [Certificate] checks an optimal solution's
    primal/dual pair against the model without trusting the solver.

    Numerical health: every refactorization and every extraction feeds
    the [Health] observatory (residuals, condition estimate, stall
    detection — DESIGN.md section 15); [solve_doctor] and
    [diagnose_basis] run the same machinery with the in-memory timeline
    captured for [flexile doctor]. *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  obj : float;  (** objective value; meaningful when [status = Optimal] *)
  x : float array;  (** primal values of the structural variables *)
  row_duals : float array;
      (** y with [obj = y.b + bound_term] at optimality; the marginal
          change of the optimum per unit of RHS on each row *)
  reduced_costs : float array;  (** structural reduced costs *)
  bound_term : float;
      (** sum over nonbasic variables of (reduced cost * bound value);
          constant part of the dual objective *)
  iterations : int;
}

val dual_bound : solution -> rhs:float array -> float
(** [dual_bound sol ~rhs] is a valid lower bound on the optimal value of
    the same LP with its right-hand side replaced by [rhs] (weak duality:
    the recorded dual solution stays feasible when only the RHS moves).
    Exact when [rhs] is the original RHS. *)

(** {1 One-shot interface} *)

val solve : Lp_model.t -> solution
(** Solve from a cold (slack) basis, within
    [50_000 + 50 * (nvars + nrows)] pivots. *)

(** {1 Warm-restart interface}

    A state is born by {!make} (its first solve is cold), {!copy} (it
    solves as its source would) or {!restart_from} (it starts at its
    source's last optimal basis).  A [t] holds the model's LP data from
    its creation on.  Every later solve restarts from the previous
    optimal basis: with the dual simplex while that basis stays dual
    feasible (bound and RHS changes), and with primal phase 2 when only
    a cost change broke dual feasibility.  When the dual simplex ends
    primal feasible but the exactly recomputed reduced costs show it
    drifted out of dual feasibility ([health.dual_guard_trips]),
    primal phase 2 finishes from that basis and the restart still
    counts as a hit.  A cold solve of the same state is left for a
    failed primal phase 2, an iteration limit, a start that is neither
    primal nor dual feasible, and to confirm an infeasibility proof of
    the dual simplex, whose answer a confirmed proof returns.
    Restarts count in [simplex.warm_attempts], each ending in exactly
    one of [simplex.warm_hits] and [simplex.warm_fallbacks]; a
    fallback's cold solve also counts in [simplex.cold_solves].
    [simplex.iterations] counts the pivots of every loop, those of a
    restart abandoned for a cold solve included.  This is the paper's
    "the dual solution space is common across the LPs for different
    scenarios" acceleration. *)

type t

(* a short eta file walks test_lp_props.ml's eta-file properties and
   test_sparse.ml's refactorization cadences *)
val make : ?eta_limit:int -> Lp_model.t -> t
  [@@lint.allow "u2-single-value-knob"]
(** A solver state for the model; its first solve is cold.
    [eta_limit] caps the eta file before a refactorization (default
    [max 64 (m/2)], see {!Sparse.Basis.create}). *)

(** {2 The LP data}

    A state owns its LP's bounds, RHS, costs and coefficients, read
    from the model at {!make} (a row appended later, at the
    {!restart_from} that adds it) and changed only by these setters; the
    model itself is never written.  Every change takes effect at the
    next solve. *)

val set_bounds : t -> Lp_model.var -> lb:float -> ub:float -> unit
(** Raises [Invalid_argument] on an out-of-range variable, a NaN bound
    or [lb > ub]. *)

val lb : t -> Lp_model.var -> float
val ub : t -> Lp_model.var -> float

val set_obj : t -> Lp_model.var -> float -> unit
val set_rhs : t -> Lp_model.row -> float -> unit

val set_coef : t -> Lp_model.row -> Lp_model.var -> float -> unit
(** [set_coef t row var c] changes the coefficient of an existing
    entry to the nonzero [c]; the sparsity pattern is fixed.  Raises
    [Invalid_argument] if [row] has no entry for [var].  The matrix is
    shared with the model and with the states made from it until the
    first change, which copies its values; when [var] is basic in an
    optimal basis, the next restart refactors that basis first. *)

val max_violation : t -> float array -> float
(** {!Lp_model.max_violation} of a full primal assignment under the
    state's bounds, RHS and coefficients. *)

val restart_from : t -> t
(** [restart_from t] is a new solver state for [t]'s LP (its current
    bounds, RHS, costs, coefficients and eta-file cap), started at the
    basis of [t]'s last solve: its nonbasic variables on their bounds,
    the basis factorized afresh and its reduced costs computed, so that
    the first solve restarts from it.  Rows appended to the model since
    [t] was made join with their own bounds and RHS and their slacks
    basic, which keeps the basis dual feasible: this is the
    cutting-plane warm start of {!Row_gen}.  Raises [Invalid_argument]
    if the model gained variables, or gained rows while [t] holds
    coefficients changed by {!set_coef}.  When [t]'s last solve did not
    end optimal (or [t] never solved) the state is as fresh as
    {!make}'s. *)

val copy : t -> t
(** [copy t] is an independent state that solves as [t] would: a deep
    copy of [t] (LP data, basis, factors, eta file, workspaces) with a
    fresh health state.  [t] is only read, so one state may be copied
    from any number of domains at once.  After the same setter calls,
    the copy's solves are those of [t], pivot for pivot. *)

(* a tiny iteration limit reaches the restart's iteration-limit
   fallback in test_lp.ml "fallback keeps the abandoned pivots" *)
val solve_warm : ?iter_limit:int -> t -> solution
  [@@lint.allow "u2-single-value-knob"]
(** Restart from the last optimal basis as described above; the first
    solve of a {!make} state is cold.  [iter_limit] defaults to
    {!solve}'s.  Runs in the [simplex.solve] span, like {!solve}. *)

val solve_cold : t -> solution
(** Solve from the slack basis as {!solve} does, ignoring the state's
    previous basis: the same pivots and the same answer, bit for bit,
    as [solve] of a model holding the state's LP data, without
    building a new state.  [Mip] solves every node LP of a search on
    one state this way. *)

(** {1 Health observatory}

    Phase tags in health samples and stall notes: 0 setup, 1 phase-1
    primal, 2 phase-2 primal, 3 dual (warm restart). *)

val solve_doctor :
  ?eta_limit:int -> ?stall_limit:int -> Lp_model.t -> solution * Health.state
(** Cold-solve [model] with the health timeline captured in memory
    (every refactorization, stall and loop sampled) — the elevated
    instrumentation [flexile doctor] replays under.  [eta_limit]
    overrides the default eta-file cap, letting a dump replay reproduce
    the original refactorization cadence; [stall_limit] is
    {!Health.make}'s. *)

val diagnose_basis :
  ?eta_limit:int ->
  ?stall_limit:int ->
  ?phase:int ->
  ?iteration:int ->
  Lp_model.t ->
  bas:int array ->
  vstat:int array ->
  Health.state
(** Factorize and measure one recorded basis of [model] (as captured in
    a health dump: [bas] is the basic variable per position, [vstat]
    the per-variable status codes over structural+slack+artificial
    columns) without running any pivots.  The returned state holds one
    sample describing that basis. *)
