(** TeaVar (SIGCOMM'19), the paper's main percentile-aware baseline.

    TeaVar allocates a {e static} bandwidth [x_t] to every tunnel
    (traffic on failed tunnels is redistributed proportionally over the
    pair's surviving tunnels, so the deliverable volume of a pair in a
    scenario is the sum of its live tunnels' allocations) and minimizes
    the {e Conditional} Value-at-Risk of the per-scenario worst-pair
    loss at level beta.  Single traffic class, as in the paper.  Under
    per-scenario demand factors each loss is taken against the
    scenario's demand; a flow with none has loss 0 there.

    Scenarios that leave every pair the same alive tunnels and every
    flow the same demand share one [s] variable, weighted by their
    summed probability, and one set of loss-definition rows
    ({!Instance.scenario_classes}); that is exact, as their rows are
    equal.  The rows are generated lazily (see {!Flexile_lp.Row_gen}),
    and [run] fails unless the row generation converges. *)

type result = {
  losses : Instance.losses;  (** post-analysis per-flow per-scenario *)
  cvar : float;  (** optimal objective (CVaR of ScenLoss) *)
  allocation : float array array;  (** pair -> tunnel -> x_t *)
  rounds : int;  (** row-generation rounds *)
}

val run : ?jobs:int -> Instance.t -> result
(** The CVaR level beta is the instance's class target.  [jobs]
    parallelizes the post-analysis loss sweep (0 = auto). *)
