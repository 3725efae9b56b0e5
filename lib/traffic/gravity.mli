(** Gravity-model traffic matrices (§6 of the paper): each site gets a
    random mass, and the demand between two sites is proportional to
    the product of their masses.  The matrix is later scaled so the
    no-failure maximum link utilization lands in the paper's [0.5,0.7]
    window (see {!scale_to_mlu}). *)

val matrix :
  seed:Flexile_util.Prng.t ->
  graph:Flexile_net.Graph.t ->
  pairs:(int * int) array ->
  float array
(** Demand per pair, gravity-weighted, normalized to mean 1. *)

val scale_to_mlu :
  mlu:(float array -> float) ->
  target:float ->
  float array ->
  float array
(** [scale_to_mlu ~mlu ~target demands]: multiply [demands] by
    [target /. mlu demands].  [mlu] must be positively homogeneous (an
    optimal-routing MLU is).  Raises [Invalid_argument] if the MLU of
    the input is not positive. *)

val drift_states :
  seed:Flexile_util.Prng.t -> npairs:int -> unit -> (float * float array) array
(** Demand-drift states for a scenario generator: 2 perturbation
    vectors of per-pair factors [exp (0.1 * z)] with [z] approximately
    standard normal (Irwin-Hall sum of 12 uniforms, exactly 12 draws
    per pair), each carrying probability 0.1 (0.2 in all, below the 0.5
    enumeration bound).  Feed to [Failure_model.demand_states] via the
    builder. *)

val split_two_class :
  seed:Flexile_util.Prng.t ->
  low_scale:float ->
  float array ->
  float array * float array
(** Random split of each pair's demand into (high, low) priority, with
    the low-priority part scaled by [low_scale] (the paper uses 2.0
    because the network can run closer to saturation with low-priority
    traffic). *)
