(** Two-phase bounded-variable revised primal simplex, with a dual
    simplex for warm restarts after bound and right-hand-side changes.

    The basis is held LU-factorized ([Sparse.Basis]) and advanced by
    product-form eta updates; the frozen dense-inverse solver survives
    as [Simplex_dense] for differential testing.  It produces dual
    certificates: row duals, reduced costs, and a parametric lower
    bound usable as a Benders cut when only the RHS varies (the
    reformulation (17)–(18) of the paper).

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

val solve : ?iter_limit:int -> Lp_model.t -> solution
(** Solve from a cold (slack) basis.  [iter_limit] defaults to
    [50_000 + 50 * (nvars + nrows)]. *)

(** {1 Warm-restart interface}

    A [t] captures the model's matrix at creation time.  Every later
    solve restarts from the previous optimal basis: with the dual
    simplex while that basis stays dual feasible (bound and RHS
    changes), with primal phase 2 when only a cost change broke dual
    feasibility, and with a cold solve of the same state otherwise or
    when the restart fails.  Restarts count in [simplex.warm_attempts],
    each ending in exactly one of [simplex.warm_hits] and
    [simplex.warm_fallbacks]; a fallback's cold solve also counts in
    [simplex.cold_solves].  This is the paper's "the dual solution
    space is common across the LPs for different scenarios"
    acceleration. *)

type t

type basis
(** An optimal basis copied out of a solver state: which variable is
    basic in each position and the bound side of every nonbasic one.
    Immutable; one basis may seed any number of solver states. *)

val make : ?basis:basis -> Lp_model.t -> t
(** A solver state for the model.  With [basis] (taken from a model of
    the same dimensions, for example the same template under other
    bounds, RHS or coefficients) the first solve restarts from it
    instead of solving cold. *)

val basis : t -> basis option
(** The basis of the last solve, if it ended optimal. *)

val solve_warm : ?iter_limit:int -> t -> solution
(** Re-read the model's variable bounds, RHS and objective (never its
    matrix), then restart from the last optimal basis as described
    above; the first solve is cold unless [make] was given a basis.
    The re-read RHS replaces any set by {!resolve_rhs}.  Runs in the
    [simplex.solve] span, like {!solve}.  On the dense reference path
    (FLEXILE_DENSE_SIMPLEX=1) every call solves the current model
    cold. *)

val resolve_rhs : ?iter_limit:int -> t -> float array -> solution
(** [resolve_rhs t rhs] re-optimizes with row right-hand sides [rhs]
    (length [nrows]), starting the dual simplex from the last optimal
    basis.  Falls back to a cold primal solve if the basis is unusable. *)

val extend : t -> Lp_model.t -> t
(** [extend t model] builds a new solver state for [model], which must
    be the same model [t] was created from with extra rows appended
    (same variables).  The previous optimal basis is reused with the
    new rows' slacks basic — a dual-feasible starting point, so the
    next [solve_warm]/[resolve_rhs] continues with the dual simplex
    instead of solving from scratch (the classic cutting-plane warm
    start). *)

(** {1 Health observatory}

    Phase tags in health samples and stall notes: 0 setup, 1 phase-1
    primal, 2 phase-2 primal, 3 dual (warm restart). *)

val health : t -> Health.state option
(** The solver's health state; [None] on the dense fallback path. *)

val solve_doctor :
  ?iter_limit:int ->
  ?eta_limit:int ->
  ?thresholds:Health.thresholds ->
  Lp_model.t ->
  solution * Health.state
(** Cold-solve [model] with the health timeline captured in memory
    (every refactorization, stall and loop sampled) — the elevated
    instrumentation [flexile doctor] replays under.  [eta_limit]
    overrides the FLEXILE_ETA_LIMIT/default eta-file cap, letting a
    dump replay reproduce the original refactorization cadence. *)

val diagnose_basis :
  ?eta_limit:int ->
  ?thresholds:Health.thresholds ->
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
