(** A traffic-engineering problem instance: topology, traffic classes
    with their flows and tunnels, and the enumerated failure scenarios.

    A {e flow} is the traffic of one (class, site-pair); this matches
    the paper, which has K * N(N-1)/2 flows.  Classes are ordered by
    decreasing priority (class 0 is served first by the priority-aware
    schemes). *)

type cls = {
  cname : string;
  beta : float;  (** availability target, e.g. 0.999 *)
  weight : float;  (** penalty weight w_k in the Flexile objective *)
}

type flow = {
  fid : int;  (** dense index across all classes *)
  cls : int;
  pair : int;  (** index into [pairs] *)
  src : int;
  dst : int;
  demand : float;
}

type memo = ..
(** Data derived from an instance by another module, computed on first
    use and cached on the instance (the scenario LP template of
    {!Scen_lp}).  It depends only on the topology, tunnels, flows and
    class count, which {!with_classes} keeps, so the copy shares it. *)

type t = {
  graph : Flexile_net.Graph.t;
  classes : cls array;
  pairs : (int * int) array;
  tunnels : Flexile_net.Tunnels.t array array array;
      (** class -> pair -> tunnels *)
  flows : flow array;
  scenarios : Flexile_failure.Failure_model.scenario array;
  alive_tunnels : int array array array array;
      (** scenario -> class -> pair -> indices of alive tunnels *)
  demand_factors : float array array option;
      (** §4.4 "more general scenarios": optional per-scenario demand
          multipliers, [factors.(sid).(fid)]; [None] means every
          scenario carries the base traffic matrix *)
  memo : memo Flexile_util.Parallel.once;
      (** empty when made; computed once, by whichever domain needs
          it first, while any other domain needing it waits *)
}

val make :
  graph:Flexile_net.Graph.t ->
  classes:cls array ->
  pairs:(int * int) array ->
  tunnels:Flexile_net.Tunnels.t array array array ->
  demands:float array array ->
  ?demand_factors:float array array ->
  scenarios:Flexile_failure.Failure_model.scenario array ->
  unit ->
  t
(** [demands.(k).(i)] is the demand of class [k] on pair [i].
    Validates dimensions and tunnel endpoints.  [demand_factors]
    optionally scales each flow's demand per scenario (sid x fid). *)

val demand_in : t -> flow -> int -> float
(** Effective demand of a flow in a scenario (base demand times the
    scenario's demand factor, if any). *)

val edge_capacity : t -> sid:int -> int -> float
(** Effective capacity of an edge in a scenario: nominal capacity
    times the scenario's remaining-capacity fraction (1 when nominal,
    0 when cut, in between for partial degradation). *)

val regime : t -> sid:int -> string
(** Failure-regime tag of a scenario
    ({!Flexile_failure.Failure_model.scenario.regime}). *)

val regime_names : t -> string list
(** Sorted distinct regime tags across the instance's scenarios. *)

val with_classes : t -> cls array -> t
(** Same instance with replaced class metadata (same class count);
    used to fill in the design target beta once connectivity of the
    sampled scenarios is known. *)

val nflows : t -> int
val nscenarios : t -> int
val flows_of_class : t -> int -> flow array

type scenario_class = {
  first : int;  (** the class's lowest scenario id *)
  members : int array;  (** its scenario ids, ascending *)
  mass : float;  (** their probabilities, summed from [0.] in ascending order *)
}

val scenario_classes : t -> key:(int -> 'a) -> scenario_class array
(** Partitions the scenarios by [key sid] (structural equality) into
    classes, ordered by first occurrence.  A CVaR LP whose per-scenario
    loss rows are equal on a class writes one row and one [s] variable
    for it, weighted by its [mass]. *)

val flow_connected : t -> flow -> int -> bool
(** Does the flow have at least one alive tunnel in scenario [sid]? *)

val connected_mass : t -> flow -> float
(** Total probability of enumerated scenarios in which the flow is
    connected. *)

(** Post-analysis loss matrix: [losses.(fid).(sid)] is the loss
    fraction (in [0,1]) of a flow in a scenario. *)
type losses = float array array

val alloc_losses : t -> losses
(** Fresh loss matrix initialized to 1.0 (nothing delivered). *)
