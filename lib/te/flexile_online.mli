(** Flexile's online phase (§4.3): on a failure, allocate bandwidth
    with a critical-flow-aware adaptation of SWAN's max-min algorithm.

    Critical flows (per the offline phase) are first guaranteed the
    loss level the offline routing achieved for them; the remaining
    capacity is then max-min allocated over flow loss, class by class
    in priority order, with joint re-routing (the paper's three changes
    to SWAN). *)

val allocate :
  ?duals:((int * float) list -> unit) ->
  Instance.t ->
  sid:int ->
  critical:(int -> bool) ->
  offline_loss:(int -> float) ->
  (int * float) list
(** [allocate inst ~sid ~critical ~offline_loss] returns [(fid, loss)]
    for every positive-demand flow in scenario [sid].  [critical fid]
    says whether the scenario is critical for the flow;
    [offline_loss fid] is the loss the offline phase guaranteed it
    (used as the critical flow's cap).  [duals] receives the binding
    capacity edges of the allocation's first LP solve (see
    {!Scen_lp.maxmin_losses}). *)

val run :
  ?jobs:int -> Instance.t -> offline:Flexile_offline.result -> Instance.losses
(** Run the online allocation for every scenario (fanned out through
    {!Scenario_engine}; [jobs = 0] means auto), using the best offline
    iterate's critical sets and guaranteed losses. *)

val run_with_duals :
  ?jobs:int ->
  Instance.t ->
  offline:Flexile_offline.result ->
  Instance.losses * (int * float) list array
(** {!run}, additionally returning each scenario's binding capacity
    edges [(edge, |dual|)] captured from the LP solution the
    allocation already computed.  Every allocation restarts from the
    instance's nominal basis on its own copy of the nominal solver
    state, which it never writes, so both results are bit-identical
    for every job count. *)
