(** The paper's two CVaR generalizations of TeaVar (§5, Appendix C):
    both evaluate losses at {e flow} level (per-flow CVaR) and minimize
    the maximum CVaR across flows.

    - [Cvar-Flow-St]: static routing, identical tunnel allocation in
      every scenario (live tunnels keep their allocation);
    - [Cvar-Flow-Ad]: adaptive routing, allocations re-chosen per
      scenario (like SMORE/Flexile).

    Losses are taken against each scenario's demand (per-scenario
    demand factors included); a flow with none has loss 0 there.
    A flow's scenarios with the same routing copy, alive tunnels and
    demand form one class with one [s] variable and one
    loss-definition row ({!Instance.scenario_classes}); under
    Cvar-Flow-Ad every class is one scenario.  The rows are generated
    lazily, and both variants fail unless that converges.  The Ad
    variant carries per-scenario capacity rows, so it is only tractable
    on moderate instances — callers should bound its size (the paper
    itself reports TLE for large CVaR runs). *)

type result = {
  losses : Instance.losses;
  max_flow_cvar : float;  (** optimal MaxFlowCVaR (eq. 20) *)
  allocation : float array array array;
      (** routing -> pair -> tunnel -> x_t: one routing for
          Cvar-Flow-St, one per scenario for Cvar-Flow-Ad (0 on a
          tunnel dead in it) *)
  rounds : int;
}

val run_static : ?jobs:int -> Instance.t -> result
val run_adaptive : ?jobs:int -> Instance.t -> result
(** Both take the CVaR level beta from the instance's class target.
    [jobs] parallelizes the post-analysis loss sweep (0 = auto). *)
