(** Post-analysis metrics over a loss matrix (Definition 4.1/4.2 and
    §2 of the paper).

    All percentile computations treat the probability mass of
    scenarios that were *not* enumerated as suffering the worst loss
    (1.0), matching the paper's conservative design targets. *)

val flow_loss_var : Instance.t -> Instance.losses -> Instance.flow -> beta:float -> float
(** FlowLoss(f, beta): the beta-percentile of the flow's loss across
    failure scenarios (Definition 4.1). *)

val perc_loss : Instance.t -> Instance.losses -> cls:int -> float
(** PercLoss_k (Definition 4.2): max over the class's flows of
    FlowLoss(f, beta), beta the class target.  Flows with zero demand
    are ignored. *)

val scen_loss : Instance.t -> Instance.losses -> sid:int -> float
(** ScenLoss_q (Definition 2.1): worst flow loss in a scenario over
    the flows it leaves connected, as in the paper's §6.3
    comparison. *)

val flow_var_cdf :
  Instance.t -> Instance.losses -> cls:int -> beta:float -> (float * float) list
(** CDF across the class's flows of FlowLoss(f, beta): sorted
    [(loss, fraction of flows <= loss)] (Fig. 5). *)

val scenario_penalty_cdf :
  Instance.t ->
  Instance.losses ->
  baseline:Instance.losses ->
  (float * float) list
(** Weighted CDF over scenarios of
    [scen_loss losses - scen_loss baseline] (Fig. 6: the loss penalty
    in each scenario relative to ScenBest). *)

val worst_flow_cdf :
  Instance.t -> Instance.losses -> cls:int -> (float * float) list
(** Weighted CDF over scenarios of the class's worst connected-flow
    loss (Fig. 13). *)

val total_weighted_penalty : Instance.t -> Instance.losses -> float
(** The Flexile objective: sum over classes of weight * PercLoss. *)
