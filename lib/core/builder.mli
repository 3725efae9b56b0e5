(** Experiment-instance builders reproducing the paper's §6
    methodology: catalog topology (or a supplied graph), gravity
    traffic scaled into the target MLU window, Weibull failure
    probabilities, best-first scenario sampling, tunnel selection per
    class, and the design-target betas.

    Everything is seeded from the topology name, so instances are
    reproducible bit-for-bit. *)

type options = {
  max_pairs : int;
      (** deterministic pair sampling cap for the largest topologies
          (keeps LPs laptop-scale; see DESIGN.md). Default 240. *)
  max_scenarios : int;  (** scenario enumeration cap. Default 150 *)
  scenario_cutoff : float;  (** probability cutoff. Default 1e-6 *)
  scenario_mix : string;
      (** comma-separated scenario regimes to compose:
          ["independent"], ["srlg"], ["partial"], ["drift"],
          ["diurnal"], ["maintenance"] (see {!parse_mix}).  Each regime
          is a {!Flexile_failure.Failure_model} family drawing from its
          own split of the instance's failure seed, split in mix order;
          the default ["independent"] alone draws from that seed
          itself.  Demand regimes attach per-scenario demand
          factors. *)
  mlu_lo : float;  (** target MLU window, default [0.5, 0.7] *)
  mlu_hi : float;
  tunnels_per_pair : int;  (** default 3 *)
  low_extra_tunnels : int;  (** extra tunnels for the low class, default 3 *)
  low_scale : float;  (** low-priority demand scaling, default 2.0 *)
  low_beta : float;  (** low-priority design target, default 0.99 *)
  high_weight : float;  (** class weight of high-priority traffic, default 100. *)
  median_failure_prob : float;  (** Weibull median, default 0.001 *)
  jobs : int;
      (** worker domains for scheme sweeps run on the built instance
          (0 = auto, see {!Flexile_te.Scenario_engine}). Default 0 *)
}

val default_options : options

val parse_mix : string -> (string list, string) result
(** Parse and validate a comma-separated mix spec (case-insensitive,
    duplicates dropped) over the regimes [independent], [srlg],
    [partial], [drift], [diurnal] and [maintenance].  [Error] names the
    first unknown regime and lists the known ones, or says the spec is
    empty. *)

val single_class :
  ?options:options -> graph:Flexile_net.Graph.t -> unit -> Flexile_te.Instance.t
(** One traffic class; beta is the paper's "as high as possible while
    all flows remain connected" target: the smallest
    {!Flexile_te.Instance.connected_mass} over the flows with demand. *)

val two_class :
  ?options:options -> graph:Flexile_net.Graph.t -> unit -> Flexile_te.Instance.t
(** Class 0 = high priority (latency-sensitive, SPOF-avoiding tunnels,
    beta as high as possible), class 1 = low priority (extra tunnels,
    beta = [low_beta], demand scaled by [low_scale]). *)

val of_name : ?options:options -> ?two_classes:bool -> string -> Flexile_te.Instance.t
(** Build from a Table-2 topology name. *)

val fig1 : unit -> Flexile_te.Instance.t
(** The motivating example: triangle topology, two unit-demand flows
    A-B and A-C, every link failing with probability 0.01, target 0.99.
    Uses single-link tunnels plus the two-hop alternates, exactly the
    routing choices discussed in §3. *)
