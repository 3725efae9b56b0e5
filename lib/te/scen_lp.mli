(** The scenario LP of an instance as one arc-path template: a
    bandwidth variable on every tunnel, a loss variable, coverage row
    and level row per positive-demand flow, a capacity row per edge
    that some tunnel crosses, and the max-min level [lambda].  It is
    compiled once per instance, on first use, together with the
    optimal basis of its nominal settings (all tunnels alive, base
    capacities and demands, every level row inactive: a feasible
    routing of the base demands), and cached
    on the instance.  A scenario only sets bounds (dead tunnels
    [ub = 0], loss bounds, frozen caps), capacity and demand RHS and
    demand-factor coefficients; every solve restarts from the nominal
    basis.  ScenBest/SMORE, SWAN and Flexile's online allocation share
    it. *)

type ctx = {
  inst : Instance.t;
  sid : int;
  model : Flexile_lp.Lp_model.t;
      (** this call's copy of the template, set to the scenario *)
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
  nominal : Flexile_lp.Simplex.basis option;
      (** the template's nominal basis, where every solve on [model]
          restarts *)
}

val build : Instance.t -> sid:int -> ctx
(** A fresh copy of the instance's template set to scenario [sid]:
    - for each flow with positive demand:
      [sum_t x_t + d_f * l_f >= d_f] over the flow's tunnels, [d_f] the
      scenario's demand (a flow with none has [l_f] fixed to 0);
    - for each edge: [sum of x crossing it <= capacity];
    - dead tunnels fixed to 0, disconnected flows' [l_f] fixed to 1.
    Compiles the template and its nominal basis on the instance's
    first call. *)

val min_max_loss : ctx -> flows:(Instance.flow -> bool) -> float option
(** Minimize the maximum loss over the flows selected by [flows]
    (activating their level rows in [ctx.model]), restarting from the
    nominal basis.  Returns the optimal max loss, or [None] if the LP
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
  ?max_levels:int ->
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

    Every level re-optimizes with {!Flexile_lp.Simplex.solve_warm},
    the first from the nominal basis, the rest from the previous
    level's basis.  The solver state lives for one call only, so the
    result depends on nothing but the instance, the scenario and the
    arguments: not on call order, earlier calls or the domain. *)

val maxmin_losses_cold :
  Instance.t ->
  sid:int ->
  class_order:int list ->
  ?merge_classes:bool ->
  ?freeze_routing:bool ->
  ?prefrozen:(int * float) list ->
  ?max_levels:int ->
  ?duals:((int * float) list -> unit) ->
  unit ->
  (int * float) list
(** {!maxmin_losses} with every LP solved cold, from the slack basis,
    on the same configured template: the reference the warm restarts
    are tested against.  No scheme uses it. *)
