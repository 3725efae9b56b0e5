(** The scenario LP of an instance as one arc-path template: a
    bandwidth variable on every tunnel, a loss variable, coverage row
    and level row per positive-demand flow, a capacity row per edge
    that some tunnel crosses, and the max-min level [lambda].  It is
    compiled once per instance, on first use, together with a solver
    state factored at an optimal basis of its nominal settings (all
    tunnels alive, base capacities and demands, every level row
    inactive: a feasible routing of the base demands), and cached on
    the instance.  Every scenario copies that state ({!build}) and sets
    on the copy only bounds (dead tunnels [ub = 0], loss bounds, frozen
    caps), capacity and demand RHS and demand-factor coefficients, so
    no scenario copies the model or factors the nominal basis again.
    ScenBest/SMORE, SWAN and Flexile's online allocation share it. *)

type ctx = {
  inst : Instance.t;
  sid : int;
  st : Flexile_lp.Simplex.t;
      (** this call's solver state: a {!Flexile_lp.Simplex.copy} of
          the nominal state, set to the scenario, whose first
          {!Flexile_lp.Simplex.solve_warm} restarts from the nominal
          basis (factored once per instance, refactored only when the
          scenario's demand factors changed a basic column) *)
  x : Flexile_lp.Lp_model.var array array array;
      (** class -> pair -> tunnel index -> variable; dead tunnels are
          fixed to 0 *)
  l : Flexile_lp.Lp_model.var array;
      (** flow id -> loss variable in [0,1], or -1 if the flow has zero
          base demand *)
  lambda : Flexile_lp.Lp_model.var;
      (** the max-min level, objective coefficient 1 *)
  cap_rows : Flexile_lp.Lp_model.row array;
      (** edge id -> capacity row, or -1 when no alive tunnel crosses
          the edge in this scenario; the handle through which LP duals
          are read back as per-edge bottleneck values *)
  level_rows : Flexile_lp.Lp_model.row array;
      (** flow id -> row [lambda - l_f >= r], active at [r = 0] and
          inactive at [r = -2] (every row starts inactive), or -1 *)
  nominal : Flexile_lp.Simplex.t;
      (** the instance's nominal state, shared by every scenario and
          domain: read-only, only ever {!Flexile_lp.Simplex.copy}'d *)
}

val build : Instance.t -> sid:int -> ctx
(** A fresh copy of the instance's nominal state set to scenario
    [sid]:
    - for each flow with positive demand:
      [sum_t x_t + d_f * l_f >= d_f] over the flow's tunnels, [d_f] the
      scenario's demand (a flow with none has [l_f] fixed to 0);
    - for each edge: [sum of x crossing it <= capacity];
    - dead tunnels fixed to 0, disconnected flows' [l_f] fixed to 1.
    Compiles the template and its nominal state on the instance's
    first call. *)

val min_max_loss : ctx -> flows:(Instance.flow -> bool) -> float option
(** Minimize the maximum loss over the flows selected by [flows]
    (activating their level rows in [ctx.st]) with one restart of
    [ctx.st].  Returns the optimal max loss, or [None] if the LP
    fails (it should not: loss 1 is always feasible). *)

val class_optimum : Instance.t -> sid:int -> cls:int -> float
(** The clairvoyant optimum of one class in one scenario: the minimum
    achievable max loss over the class's flows when the whole network
    serves only that class (other classes' coverage rows are satisfied
    by their loss variables, consuming no capacity).  Any allocation
    restricted to the class is feasible for this relaxation, so
    [max online loss - class_optimum] is a nonnegative regret (up to
    LP tolerance).  Clamped to [0, 1]; [1.] if the LP fails. *)

val maxmin_losses :
  Instance.t ->
  sid:int ->
  class_order:int list ->
  ?merge_classes:bool ->
  ?freeze_routing:bool ->
  ?prefrozen:(int * float) list ->
  ?duals:((int * float) list -> unit) ->
  unit ->
  (int * float) list
(** SWAN-style iterative max-min on {e flow loss}, processing classes
    in the given priority order (earlier classes are served first;
    their resulting losses constrain later classes while routing is
    re-decided jointly, the paper's §4.3 refinement of SWAN).
    With [merge_classes] all listed classes are max-minned together as
    one group (the single-class ScenBest/SMORE behaviour).  With
    [freeze_routing] the tunnel split of each class is pinned before
    lower classes are served — SWAN's behaviour, as opposed to the
    joint re-routing used by ScenBest-Multi and Flexile.  [prefrozen]
    forces upper bounds on specific flows' losses (used by Flexile's
    online phase for critical flows).  [duals] is called at most once,
    with the [(edge, |dual|)] pairs of the binding capacity rows of
    the {e first} optimal solve (the bottlenecks while the top
    priority group is served) — threaded out of the simplex solution
    already computed, never a re-solve.  Returns [(fid, loss)] for
    every positive-demand flow of the listed classes.

    Each level solves for the least [lambda] over the active flows and
    freezes, at [lambda], those whose level row has a dual above 1e-9;
    a level at [lambda <= 1e-7] freezes every active flow at 0.
    [lambda] has cost 1 and appears only in the active level rows, so
    at [lambda > 0] their duals sum to 1 and some row binds: every
    level freezes at least one flow, and a class group solves at most
    as many levels as it has active flows.  There is no level budget.
    Should numerics leave no row above 1e-9, every active flow freezes
    at [lambda]; that guard only ends the loop.  A level whose LP does
    not end optimal freezes every active flow at loss 1.

    Every level re-optimizes with {!Flexile_lp.Simplex.solve_warm},
    on the state of one {!build} of the scenario: the first from the
    nominal basis, the rest from the previous level's basis.  The
    solver state lives for one call only, so the
    result depends on nothing but the instance, the scenario and the
    arguments: not on call order, earlier calls or the domain. *)
