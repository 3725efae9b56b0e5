(** Flexile's offline phase (§4.2): choose the critical failure
    scenarios of every flow so that the weighted sum of per-class
    percentile losses (PercLoss) is minimized.

    Implements Algorithm 1 with the paper's accelerations:
    - the problem is decomposed into a master MIP proposing critical
      scenarios and one small LP subproblem per scenario; each
      master's branch and bound stops after 400 node LPs, so the plan
      does not depend on the host's speed;
    - subproblems use the RHS-only reformulation (17)-(18): one
      template LP is compiled per {!solve} into a solver state that
      never solves, every scenario solves a
      {!Flexile_lp.Simplex.copy} of it cold, set to the scenario by
      {!Routing.set_scenario} (as {!Scen_lp.build} is) and by its
      criticality and gamma RHS, and one scenario's dual solution
      yields valid cuts for every other scenario (cut sharing,
      eq. (22));
    - perfect scenarios (all flows served losslessly) and scenarios
      whose critical-flow set did not change are pruned;
    - a Hamming-distance constraint (23) stabilizes the master;
    - the starting point sets a flow's critical scenarios to all
      scenarios in which it is connected, which already guarantees a
      solution at least as good as TeaVar or ScenBest (Proposition 1).

    The loop stops (Algorithm 1) once the best achieved penalty meets
    the master's lower bound, tested after every sweep, before the
    next master is solved, and again after each master; it also stops
    when a master proposes the same plan, after [max_iterations]
    sweeps, or when a master finds no solution.  Exactly one of the
    counters [flexile.stop_gap_closed], [flexile.stop_same_plan],
    [flexile.stop_max_iterations] and [flexile.stop_master_failed]
    records why. *)

type config = {
  max_iterations : int;
      (** outer iterations (subproblem sweeps); the paper uses 5.  The
          starting point's sweep always runs *)
  hamming_limit : int option;
      (** max flips of z per iteration; [None] disables (23).  A master
          under this row is optimal only inside its trust region, so
          with a limit no master bound reaches [lower_bound] or the
          stop rule *)
  gamma : float option;
      (** §4.4: bound every flow's loss in scenario q by
          [gamma + optimal ScenLoss of q] *)
  share_cuts : bool;  (** generate cuts (22) for unsolved scenarios *)
  prune : bool;
      (** prune perfect and unchanged scenarios (§4.2); disable only
          for ablation studies *)
  jobs : int;
      (** worker domains for the subproblem sweep (via
          {!Scenario_engine}); [0] = auto ([FLEXILE_JOBS] or one per
          core).  No worker keeps state across scenarios, so the result
          is bit-identical for every job count *)
}

val default_config : config

type iterate = {
  iteration : int;  (** 0 is the connectivity starting point *)
  z : bool array array;  (** criticality: flow id x scenario id *)
  losses : Instance.losses;
      (** losses of the subproblems' routing under this z — an
          achievable routing, so the penalty is a true upper bound *)
  penalty : float;  (** achieved weighted PercLoss of this iterate *)
}

type result = {
  iterates : iterate list;  (** chronological, starting point first *)
  best : iterate;  (** lowest achieved penalty *)
  lower_bound : float;
      (** the largest bound of the masters solved, or [0.] when none
          was (the starting point's sweep closed the gap, or
          [max_iterations = 1]) or when [hamming_limit] is set.  A
          valid lower bound on the optimal
          penalty up to the subproblems' secondary loss objective
          (<= ~1e-3) *)
  subproblems_solved : int;
  wall_time : float;
}

val solve : ?config:config -> Instance.t -> result
