(** Stochastic failure model: independent failure {e units}, their
    generator families, and best-first enumeration of the most probable
    disjoint scenarios.

    The paper's §6 model is {!independent_links}: every link is its own
    shared-risk link group (SRLG) with a Weibull-distributed failure
    probability whose median is ~0.001.  §4.4 generalises the same
    enumerated set to SRLGs, partial capacity and per-scenario demand;
    those are the other families below, and every consumer
    ({!Flexile_te.Scenario_engine}, the offline MIP, the schemes, the
    monitor) takes any of them, or a {!compose}d mix, without
    per-scheme changes.

    A unit is one independent cause of degradation (a link, a fiber
    conduit, a maintenance calendar, a demand shift).  Each unit has
    one or more mutually exclusive non-nominal {e states}; a state
    carries the capacity fraction its edges retain (0 = hard cut, 0.3 =
    the link limps at 30%) and an effect on the traffic matrix.  The
    unit's nominal ("all good") mass is [1 - sum of state
    probabilities]: the states are disjoint events of one cause, so
    their masses ADD.

    Seeding discipline: every stochastic constructor takes an explicit
    {!Flexile_util.Prng.t} and draws from it in unit order, so a model
    is a pure function of [(topology, seed, parameters)].  Nothing here
    reads a clock.  This library cannot depend on [lib/traffic]: the
    demand-drift vectors come from {!Flexile_traffic.Gravity} through
    {!demand_states} / {!diurnal}, passed in by the builder. *)

(** Demand-side effect of a state on the traffic matrix. *)
type demand_effect =
  | No_change
  | Scale of float  (** uniform scaling of every pair's demand *)
  | Per_pair of float array  (** per-pair multiplicative factors *)

(** One non-nominal state of a unit. *)
type state = {
  prob : float;  (** probability, in (0, 1) *)
  frac : float;  (** capacity fraction retained, in [0, 1): 0 is a hard cut *)
  demand : demand_effect;
  sedges : int array option;
      (** per-state edge set ([None] = the unit's edges); used by
          maintenance windows, whose states remove different links *)
}

type failure_unit = {
  uname : string;  (** unique within a model; survives composition *)
  regime : string;
      (** failure-regime tag carried into enumerated scenarios
          (["independent"], ["srlg"], ["partial"], ["drift"],
          ["diurnal"], ["maintenance"], ...) *)
  edges : int array;
  states : state array;
}

type t = { nedges : int; units : failure_unit array }

(** Every generator below validates what it builds: edge ranges, state
    probabilities (each in (0,1), total < 0.5 per unit — the best-first
    enumeration bound), capacity fractions in [0,1), nonnegative demand
    factors and unit-name uniqueness.  It raises [Invalid_argument] with
    a message naming the unit otherwise. *)

val compose : t list -> t
(** Concatenate the unit lists of models over the same edge count.
    Unit names must remain unique across the composition.  Scenario
    probabilities multiply because units are independent. *)

(** {1 Generator families} *)

(* explicit shared-risk groups build the hand-checked SRLG models of
   test_failure.ml "srlg groups", test_te_toy.ml "shared-risk link
   groups" and test_scenario_gen.ml *)
val binary : ?groups:int array array -> nedges:int -> float array -> t
  [@@lint.allow "u2-single-value-knob"]
(** Explicit probabilities: unit [i] is a hard cut of [groups.(i)]
    (default: edge [i] alone, so there is one probability per edge)
    with probability [probs.(i)], regime ["independent"].  For the
    paper's toy examples, where every link fails with 0.01, and for
    tests. *)

val independent_links : graph:Flexile_net.Graph.t -> seed:Flexile_util.Prng.t -> unit -> t
(** The paper's model: one hard-cut unit per link (regime
    ["independent"]), its probability drawn from a Weibull with median
    0.001 and shape 0.8, clamped to [1e-5, 0.3], in edge order. *)

val srlg :
  nedges:int ->
  groups:int array array ->
  seed:Flexile_util.Prng.t ->
  unit ->
  t
(** Shared-risk link groups: [groups.(i)] lists edges cut atomically
    (a fiber conduit), with one hazard per group drawn in group order
    as in {!independent_links}.  With singleton groups the
    probabilities and scenarios are those of {!independent_links} for
    the same seed; only the regime tag differs. *)

val partial : graph:Flexile_net.Graph.t -> seed:Flexile_util.Prng.t -> unit -> t
(** Partial-capacity degradation: per link, a Weibull-drawn total
    degradation probability split across three levels by weight, so a
    degraded link may survive at a fraction of capacity instead of
    binary down.  The levels [(fraction, weight)] are a hard cut
    (frac 0, weight 0.5), 30% (weight 0.3) and 70% (weight 0.2). *)

type window = {
  wname : string;
  wedges : int array;  (** links removed while the window is active *)
  wstart : float;  (** offset into the planning horizon *)
  wduration : float;
}

val maintenance : nedges:int -> horizon:float -> window list -> t
(** Planned maintenance: deterministic link removal over a schedule.
    A uniformly drawn instant lands inside window [w] with probability
    [w.wduration /. horizon] and in at most one window, so the
    schedule is exactly one multi-state unit whose states are the
    windows (each removing its own [wedges]).  Seedless: the same
    schedule always yields the same model.  Raises [Invalid_argument]
    on overlapping windows, windows outside the horizon, nonpositive
    durations, or total maintenance mass >= 0.5. *)

val demand_states : nedges:int -> name:string -> (float * demand_effect) array -> t
(** An edge-free unit whose states perturb the traffic matrix:
    [(probability, effect)] per state.  The builder feeds
    gravity-perturbation vectors from {!Flexile_traffic.Gravity} in
    here.  Its regime tag is [name]. *)

val diurnal : nedges:int -> t
(** Diurnal demand scaling as an edge-free [demand_states] unit: peak
    1.25 and trough 0.75 at probability 0.2 each, nominal mass 0.6. *)

(** {1 Enumeration} *)

(** A failure scenario: a subset of units in a non-nominal state, all
    others nominal.  Scenarios are disjoint events; probabilities of an
    enumeration sum to at most 1. *)
type scenario = {
  sid : int;  (** dense index within the enumeration *)
  failed_units : int array;  (** ascending unit ids *)
  failed_states : int array;  (** state index per failed unit *)
  prob : float;
  edge_alive : bool array;
      (** length [nedges]; an edge is alive iff its capacity fraction
          is positive (a degraded link still carries traffic) *)
  cap_frac : float array;
      (** length [nedges]; remaining capacity fraction per edge, the
          product over the failed units' states touching it ([1.]
          nominal, [0.] cut) *)
  regime : string;
      (** ["nominal"] for the all-up scenario, the common
          {!failure_unit.regime} when every failed unit agrees,
          ["mixed"] otherwise *)
}

val enumerate : ?cutoff:float -> ?max_scenarios:int -> t -> scenario array
(** Scenarios in non-increasing probability order, stopping below
    probability [cutoff] (default 1e-6, the paper's threshold) or at
    [max_scenarios] (default 400).  The no-failure scenario is first. *)

val pair_factors : ?npairs:int -> t -> scenario array -> float array array option
(** [pair_factors.(sid).(pair)] multiplies the nominal demand of
    [pair] in scenario [sid]: the product of the failed units' demand
    effects.  [None] when no unit carries a demand effect.  [npairs]
    is required when the effects are all uniform {!Scale}s; with
    {!Per_pair} effects it is inferred (and checked for
    consistency). *)

val coverage : scenario array -> float
(** Total probability mass of the enumerated scenarios.  The
    unenumerated tail [1 - coverage] is well defined for multi-state
    units because each unit's nominal mass is [1 - sum of states]. *)
