(** An LP optimality certificate, checked from the model alone.

    For  [min c.x]  s.t.  [A x (<=, >=, =) b],  [lb <= x <= ub],  a
    primal point [x] and row duals [y] are optimal exactly when [x] is
    feasible, [y] has the right signs and the duality gap is zero.  The
    check recomputes the reduced costs [d = c - A^T y] from the model's
    rows, bounds and costs; it reads nothing of the solver's internals,
    only the [x] and [row_duals] of a {!Simplex.solution}, and then
    holds the solution's own [obj], [reduced_costs] and
    {!Simplex.dual_bound} (what the Benders cuts use) to the recomputed
    values. *)

type t = {
  primal_violation : float;
      (** largest bound or row violation of [x] ([Lp_model.max_violation]) *)
  dual_violation : float;
      (** largest dual-sign violation: [y > 0] on a [Le] row, [y < 0] on a
          [Ge] row, [d_j > 0] without a finite [lb], [d_j < 0] without a
          finite [ub]; also the largest difference between the solution's
          [reduced_costs] and the recomputed [d] *)
  gap : float;
      (** relative gap between [c.x] and the dual objective
          [y.b + sum_j d_j * (lb_j if d_j > 0, ub_j if d_j < 0)], scaled
          by [max 1 |c.x|]; also the relative difference of the
          solution's [obj] from [c.x] and of its [dual_bound] at the
          model's RHS from the dual objective *)
}

val check : Lp_model.t -> Simplex.solution -> t
(** Measure the certificate of a solution of [model].  Meaningful for
    [Optimal] solutions.  Raises [Invalid_argument] if the solution's
    arrays do not match the model's dimensions. *)

val certified : t -> bool
(** Primal and dual violation at most 1e-7 (the solver's feasibility
    and optimality tolerances) and gap at most 1e-9.  False if any
    number is NaN. *)
