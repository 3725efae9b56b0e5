(** Minimum-cost capacity augmentation (appendix B): add capacity
    delta_e (at per-unit cost w_e) so that each class's PercLoss is at
    most a prescribed limit.

    Two planning modes reproduce the §3 comparison:
    - [`Per_flow]: Flexile's planning — each flow may meet its target
      in its own set of critical scenarios (variables z_fq);
    - [`Common]: the scenario-centric planning forced on ScenBest-like
      schemes — all flows share one set of scenarios (variables z_q),
      so the triangle of Fig. 1 needs every link doubled while
      Flexile-style planning needs nothing. *)

type result = {
  cost : float;  (** total added-capacity cost; [infinity] without a plan *)
  added : float array;  (** per-edge capacity added *)
  status : Flexile_lp.Mip.status;
      (** how the search ended: [Limit] means the node budget ran out
          before any plan was found, [Infeasible] that none exists *)
  nodes : int;  (** node LPs the search solved *)
}

(* a node budget of 1 reaches the search's cut-short path in
   test_te_toy.ml's "augment: node budget, not infeasible", and 60
   keeps test_te_real.ml's jobs-invariance check fast *)
val min_cost :
  ?node_limit:int ->
  mode:[ `Per_flow | `Common ] ->
  perc_limit:float array ->
  Instance.t ->
  result
  [@@lint.allow "u2-single-value-knob"]
(** [perc_limit.(k)] bounds class [k]'s PercLoss.  Every edge costs 1
    per added unit, and each edge's augmentation is bounded by 4x the
    largest capacity to keep the MIP bounded.  At every fractional node
    a repair heuristic keeps the relaxation's routing and added
    capacity and flags critical exactly the flows (or scenarios) whose
    least loss under it fits the limit; when that meets coverage it is
    an incumbent at the node's bound.  The search stops after
    [node_limit] node LPs (default 700: on IBM with two classes, 30
    scenarios and 40 pairs, about as many as a 2-vCPU VM solved in the
    120 s wall-clock limit this budget replaced). *)
