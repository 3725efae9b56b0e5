(** Small statistics toolkit used by the evaluation pipeline:
    percentiles over probability-weighted samples (Value-at-Risk),
    conditional value-at-risk, weighted CDFs, and correlation. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,1]: smallest value [v] such that at
    least a fraction [p] of the (equally weighted) samples are <= [v].
    Raises [Invalid_argument] on an empty array. *)

val median : float array -> float

val weighted_var : (float * float) array -> beta:float -> float
(** [weighted_var samples ~beta]: Value-at-Risk at level [beta] of
    weighted samples [(value, probability)].  Returns the smallest [v]
    such that the probability of samples with value <= [v] is >= [beta].
    If total probability is below [beta], the missing mass is treated as
    the worst possible value and the result is the maximum sample value
    only when the observed mass reaches [beta]; otherwise [1.0] —
    callers pass loss fractions, for which 1.0 is the worst case.  This
    matches the paper's conservative treatment of unsampled failure
    states. *)

(* test oracle: the reference CVaR of the paper's §3 comparison, which
   the tests hold VaR against (CVaR >= VaR: TeaVar's overestimate) *)
val weighted_cvar : (float * float) array -> beta:float -> float
  [@@lint.allow "u1-unused-export"]
(** Conditional Value-at-Risk: expected value of the worst [1 - beta]
    probability mass (missing mass charged at loss 1.0). *)

val weighted_cdf : (float * float) array -> (float * float) list
(** Sorted [(value, cumulative probability)] points of the weighted
    distribution. *)

val pearson : float array -> float array -> float
(** Pearson correlation coefficient; nan on degenerate input. *)
