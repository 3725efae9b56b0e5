(** Flow-level testbed emulator standing in for the paper's
    Mininet/Open vSwitch cluster (§6.1).

    The paper found that the only systematic gap between its
    optimization models and the emulation testbed is discretization:
    Open vSwitch select groups take integer weights, and traffic is
    packetized.  This emulator reproduces exactly those channels:

    - the model's tunnel allocation is converted to integer weights in
      [1, weight_scale];
    - each flow's admitted traffic (the token-bucket rate, i.e. its
      model-delivered volume) is quantized into packets that pick a
      tunnel at random with weight-proportional probability;
    - links drop excess traffic proportionally, hop by hop (computed
      as the fixed point of per-link pass factors).

    Comparing emulated to model losses reproduces Fig. 9c. *)

type run = {
  emulated : Flexile_te.Instance.losses;
  pcc : float;  (** Pearson correlation, emulated vs model, all cells *)
  max_abs_diff : float;
  diff_cdf : (float * float) list;
      (** CDF of (emulated - model) loss over flows x scenarios *)
}

(* test oracle: the tests check this LP's allocation for feasibility
   and pin it bit for bit, apart from the seeded packet draws that
   [emulate] adds on top *)
val reconstruct_allocation :
  Flexile_te.Instance.t ->
  sid:int ->
  model_losses:Flexile_te.Instance.losses ->
  float array array array
  [@@lint.allow "u1-unused-export"]
(** Recover a concrete tunnel allocation (class -> pair -> tunnel)
    realizing the scheme's model losses in a scenario: the LP the
    controller would solve to install forwarding weights. *)

val emulate_scenario :
  seed:Flexile_util.Prng.t ->
  Flexile_te.Instance.t ->
  sid:int ->
  model_losses:Flexile_te.Instance.losses ->
  float array
(** Emulate a single scenario; returns the per-flow loss fractions
    (indexed by flow id).  Only column [sid] of [model_losses] is
    read, so a replay driver (the [flexile monitor] subcommand) can
    fill the matrix lazily as scenarios are drawn.  The PRNG state
    advances with each packet, so independent per-scenario seeds give
    draw-order-independent results.  Reconstructs the scenario's
    allocation on every call. *)

(* finer quantization is how test_emu.ml checks that the emulation
   converges to the model *)
val emulate :
  ?packets_per_unit:int ->
  seeds:Flexile_util.Prng.t list ->
  Flexile_te.Instance.t ->
  model_losses:Flexile_te.Instance.losses ->
  run list
  [@@lint.allow "u2-single-value-knob"]
(** One run per seed, in order: the run of a seed emulates every
    scenario under it, one PRNG shared across its scenarios, exactly as
    {!emulate_scenario} would.  Each scenario's allocation is
    reconstructed once per call and shared by the runs.
    [packets_per_unit] (default 200) controls quantization
    granularity; forwarding weights are integers in the Open vSwitch
    select-group range of 100. *)
