(** Miss attribution: explain {e why} a class misses (or burns error
    budget toward missing) its percentile-loss objective.

    For each class the analysis decomposes the gap between the
    promised and delivered PercLoss (paper Definition 4.2) along three
    axes, all from artifacts the solver already produced:

    - {e scenario attribution}: the class percentile is the
      beta-quantile of its binding flow's weighted loss distribution.
      Scenarios within the promise contribute "good" mass; the
      shortfall [beta - good_mass] (the miss mass) is charged to the
      cheapest violating scenarios in ascending loss order — exactly
      the scenarios that would have to be fixed for the percentile to
      clear the promise.  Any remainder the enumerated set cannot
      cover is charged to unenumerated mass (loss 1.0, the paper's
      conservative treatment).  By construction
      [sum of attributed + other_mass + unenumerated = miss_mass]
      to within float re-summation error (well under 1e-9).

    - {e bottleneck attribution}: the binding capacity edges and LP
      dual values of each scenario's allocation, captured from the
      simplex solution the online allocator already computed
      ({!Flexile_te.Scen_lp.maxmin_losses}'s [?duals] surface — no
      re-solving), aggregated into per-edge blame scores
      [sum over attributed scenarios of attributed_mass * dual].

    - {e regret attribution}: per (class, scenario),
      [online loss - clairvoyant class optimum]
      ({!Flexile_te.Scen_lp.class_optimum}); nonnegative up to LP
      tolerance.  Observed into the [slo.regret] histogram and
      exported as the [flexile_regret] Prometheus family.

    Scenarios carry their failure-regime tag
    ({!Flexile_te.Instance.regime}), so mass, attainment and regret
    are also reported conditioned on regime ("which kind of failure
    is eating the budget?").

    Everything is deterministic: for a fixed instance and seed the
    report — and its JSON/Prometheus renderings — is byte-identical
    across runs and across [?jobs] values. *)

type inputs
(** Solver-side artifacts gathered once per instance: online losses
    with captured duals, and the per-(class, scenario) regret matrix.
    Reusable across any number of {!analyze} calls (e.g. one per
    monitor snapshot). *)

val prepare :
  ?jobs:int ->
  ?tol:float ->
  Flexile_te.Instance.t ->
  offline:Flexile_te.Flexile_offline.result ->
  promised:float array ->
  unit ->
  inputs
(** Run the online allocator with dual capture
    ({!Flexile_te.Flexile_online.run_with_duals}) and solve one
    clairvoyant LP per (scenario, class) for the regret baseline, both
    fanned out over [jobs] domains with bit-identical results.
    [promised.(k)] is class [k]'s offline PercLoss promise; [tol]
    (default 1e-6) is the slack added to promise comparisons.
    Clamped regrets are observed into the [slo.regret] histogram
    (in deterministic class-major order). *)

val online_losses : inputs -> Flexile_te.Instance.losses
(** The online loss matrix computed by {!prepare} — analyze this for
    the solver's own attainment, or a monitor's observed matrix for
    live attribution. *)

(* test oracle: the tests check the unclamped matrix, which every
   report clamps at 0 *)
val regret : inputs -> float array array
  [@@lint.allow "u1-unused-export"]
(** [regret i] is the raw (unclamped) regret matrix, [cls] x [sid]:
    online class max loss minus the clairvoyant class optimum.  May
    dip below zero only by LP tolerance. *)

(** One binding/blamed capacity edge. *)
type bottleneck = {
  bedge : int;  (** edge id *)
  bu : int;
  bv : int;  (** endpoints *)
  bdual : float;  (** dual magnitude, or blame score when aggregated *)
}

(** One scenario charged with part of the miss mass. *)
type scen_attr = {
  ssid : int;
  sregime : string;  (** {!Flexile_te.Instance.regime} tag *)
  sprob : float;
  sloss : float;  (** the binding flow's loss in this scenario *)
  sattr : float;  (** attributed mass, [0 < sattr <= sprob] *)
  sregret : float;  (** clamped class regret in this scenario *)
  sbottlenecks : bottleneck list;  (** top binding edges, dual desc *)
}

(** Regime-conditioned view of one class. *)
type regime_attr = {
  gregime : string;
  gmass : float;  (** total probability mass of the regime *)
  gattr : float;  (** attributed miss mass falling in the regime *)
  gattainment : float;
      (** PercLoss with probabilities renormalized within the regime *)
  gattained : bool;
  gregret : float;  (** mean clamped regret, regime-conditioned *)
}

type class_attr = {
  acls : int;
  aname : string;
  abeta : float;
  apromised : float;
  aobserved : float;  (** PercLoss of the analyzed matrix *)
  aattained : bool;  (** [aobserved <= apromised + tol] *)
  abinding_fid : int;  (** arg-max flow of FlowLoss, -1 if class empty *)
  agood_mass : float;  (** mass of scenarios within the promise *)
  abad_mass : float;  (** mass of violating scenarios *)
  amiss_mass : float;  (** [max 0 (beta - good_mass)] *)
  aburn : float;  (** [bad_mass / (1 - beta)]: error-budget burn *)
  ascenarios : scen_attr list;  (** top attributed, mass desc *)
  aother_mass : float;  (** attributed mass beyond [top] *)
  aunenumerated : float;  (** miss mass charged outside the set *)
  aregimes : regime_attr list;  (** regimes with positive mass *)
  ablame : bottleneck list;  (** per-edge blame, score desc, top 10 *)
  aregret_expected : float;  (** sum of prob * clamped regret *)
  aregret_max : float;
  apromise_gap : float;  (** [max 0 (observed - promised)] *)
}

type report = { rtol : float; classes : class_attr list }

val attributed_total : class_attr -> float
(** [sum of sattr + aother_mass + aunenumerated] — reconciles with
    [amiss_mass] to within re-summation error (< 1e-9). *)

val analyze : ?top:int -> inputs -> losses:Flexile_te.Instance.losses -> report
(** Attribute every class of the instance against [losses] — the
    online matrix ({!online_losses}) or a monitor's observed matrix
    ({!Slo.observed_losses}).  [top] (default: all) caps the
    per-class scenario list; the rest is folded into [aother_mass]. *)

val report_json : report -> Flexile_util.Json.t
(** The full report.  Deterministic; non-finite numbers encode as
    [null]. *)

val snapshot_json : report -> Flexile_util.Json.t
(** Compact form for JSONL monitor lines: per class the
    reconciliation numbers, budget burn, expected regret and the
    regime split — no scenario or bottleneck detail. *)

val regimes_json : report -> Flexile_util.Json.t
(** Just the regime-conditioned attainment: per class the promise,
    the observed percentile and the per-regime table — the "which kind
    of failure is eating the budget" artifact. *)

val prometheus_families : report -> string
(** Labeled gauge families to append to a
    {!Flexile_util.Trace_export.prometheus} page: [flexile_slo_miss_mass] and
    [flexile_slo_budget_burn] by [class]; [flexile_slo_attainment] and
    [flexile_regret] by [class] and [regime] (including
    [regime="overall"]), rendered by
    {!Flexile_util.Trace_export.labeled_gauge}. *)
