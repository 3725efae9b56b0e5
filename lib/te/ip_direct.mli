(** The exact MIP formulation (I) of §4.1, solved directly by
    branch-and-bound.  This is the paper's "IP" scheme: it yields the
    true optimal PercLoss but is only tractable on smaller instances
    (the paper reports >1h for its largest topologies; here it is used
    for the optimality-gap and solving-time experiments, Figs 14/15). *)

type result = {
  losses : Instance.losses;
  penalty : float;  (** optimal (or best incumbent) weighted PercLoss *)
  bound : float;  (** proven lower bound *)
  optimal : bool;  (** false when the node budget stopped the search *)
}

val solve : ?node_limit:int -> ?jobs:int -> Instance.t -> result
(** [node_limit] bounds the branch-and-bound (default 2000 node LPs;
    the quick profile's Fig 15 passes a smaller budget); the answer
    depends only on the instance and that budget.  [jobs] parallelizes
    the post-analysis loss sweep (0 = auto). *)
