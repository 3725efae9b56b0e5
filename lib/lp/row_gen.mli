(** Cutting-plane / lazy-row solving.

    The TeaVar and CVaR formulations have a "loss definition" row per
    flow and scenario class, of which only a handful are active at the
    optimum (those attaining the per-scenario maxima).  This wrapper
    solves with a growing row set: solve, ask the caller for violated
    rows of the current point, add them, repeat. *)

type spec = {
  sense : Lp_model.sense;
  rhs : float;
  coeffs : (Lp_model.var * float) list;
}

type result = {
  solution : Simplex.solution;  (** the last relaxation's solution *)
  rounds : int;
  converged : bool;
      (** the last relaxation is optimal and violates no row of the
          full model; [false] when it did not solve or when
          [max_rounds] ran out with violated rows left *)
}

(* one round cuts a run short in test_lp.ml "cut short by max_rounds" *)
val solve :
  ?max_rounds:int ->
  ?per_round:int ->
  violated:(float array -> spec list) ->
  Lp_model.t ->
  result
  [@@lint.allow "u2-single-value-knob"]
(** [solve ~violated model] solves with a growing row set.  [violated
    x] must return rows of the *full* model violated at [x] (an empty
    list certifies optimality for the full model).  At most [per_round]
    (default 500) rows are added per round; [max_rounds] defaults to
    60.  The added rows remain in [model]. *)
