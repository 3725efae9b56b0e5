(** Experiment-instance builders reproducing the paper's §6
    methodology: catalog topology (or a supplied graph), gravity
    traffic scaled into the target MLU window, Weibull failure
    probabilities, best-first scenario sampling, tunnel selection per
    class, and the design-target betas.

    Everything is seeded from the topology name, so instances are
    reproducible bit-for-bit.

    The rest of the methodology is fixed: scenarios less likely than
    1e-6 are not enumerated; gravity traffic is scaled so the
    no-failure min-MLU lands in [0.5, 0.7]; each pair gets 3 tunnels
    and each low-priority pair 3 more; the low class's design target is
    0.99 and the high class weighs 100 in the penalty; link failure
    probabilities are Weibull with median 0.001. *)

type options = {
  max_pairs : int;
      (** deterministic pair sampling cap for the largest topologies
          (keeps LPs laptop-scale; see DESIGN.md). Default 240. *)
  max_scenarios : int;  (** scenario enumeration cap. Default 150 *)
  scenario_mix : string;
      (** comma-separated scenario regimes to compose:
          ["independent"], ["srlg"], ["partial"], ["drift"],
          ["diurnal"], ["maintenance"] (see {!parse_mix}).  Each regime
          is a {!Flexile_failure.Failure_model} family drawing from its
          own split of the instance's failure seed, split in mix order;
          the default ["independent"] alone draws from that seed
          itself.  Demand regimes attach per-scenario demand
          factors. *)
  low_scale : float;  (** low-priority demand scaling, default 2.0 *)
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
    beta as high as possible, weight 100), class 1 = low priority
    (extra tunnels, beta 0.99, demand scaled by [low_scale]). *)

val of_name : ?options:options -> ?two_classes:bool -> string -> Flexile_te.Instance.t
(** Build from a Table-2 topology name. *)

val fig1 : unit -> Flexile_te.Instance.t
(** The motivating example: triangle topology, two unit-demand flows
    A-B and A-C, every link failing with probability 0.01, target 0.99.
    Uses single-link tunnels plus the two-hop alternates, exactly the
    routing choices discussed in §3. *)
