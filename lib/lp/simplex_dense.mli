(** Frozen dense reference simplex.

    The pre-sparse solver (explicit dense basis inverse, O(m^2) pivots)
    kept as a differential oracle for the LU/eta-file path in
    {!Simplex}.  [Simplex] routes through this module when
    [FLEXILE_DENSE_SIMPLEX=1] is set; the sparse differential tests also
    call it directly.  Mirrors the historical [Simplex] interface; new
    solver work belongs in {!Simplex} / {!Sparse}, not here. *)

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  obj : float;
  x : float array;
  row_duals : float array;
  reduced_costs : float array;
  bound_term : float;
  iterations : int;
}

val dual_bound : solution -> rhs:float array -> float

val solve : ?iter_limit:int -> Lp_model.t -> solution

type t

val make : Lp_model.t -> t
val resolve_rhs : ?iter_limit:int -> t -> float array -> solution
val extend : t -> Lp_model.t -> t
