(** The arc-path routing block every TE LP shares: a bandwidth variable
    per tunnel, in class, pair, tunnel order, and a capacity row per
    loaded edge, in edge order.  {!edge_load} is the path matrix,
    transposed: a caller with its own capacity-row shape (a utilization
    variable, an augmentation term, one flow's tunnels) adds the rows
    from it. *)

type vars = Flexile_lp.Lp_model.var array array array
(** class -> pair -> tunnel index -> bandwidth variable, or [-1] where
    the tunnel has none *)

val tunnel_vars :
  ?obj:float ->
  Flexile_lp.Lp_model.t ->
  Flexile_net.Tunnels.t array array array ->
  keep:(int -> int -> int -> bool) ->
  vars
(** [tunnel_vars model tunnels ~keep] adds a variable (named
    [x_<class>_<pair>_<tunnel>], objective [obj], default 0) for every
    tunnel [t] of class [k], pair [i] with [keep k i t], in class,
    pair, tunnel order. *)

val vars : ?sid:int -> ?obj:float -> Flexile_lp.Lp_model.t -> Instance.t -> vars
(** A variable for every tunnel of the instance or, with [sid], for
    every tunnel alive in that scenario. *)

val edge_load :
  Flexile_net.Graph.t ->
  Flexile_net.Tunnels.t array array array ->
  vars ->
  (Flexile_lp.Lp_model.var * float) list array
(** edge -> [(x, 1.)] for every variable whose tunnel crosses the edge;
    [[]] on an edge no variable loads. *)

val capacity_rows :
  ?sid:int -> Flexile_lp.Lp_model.t -> Instance.t -> vars -> Flexile_lp.Lp_model.row array
(** One [load <= capacity] row per loaded edge, in edge order: at the
    nominal capacity or, with [sid], at {!Instance.edge_capacity}.
    Returns edge -> row, or [-1] on an unloaded edge. *)

val fix_dead : Flexile_lp.Simplex.t -> Instance.t -> vars -> sid:int -> bool array
(** Fixes to 0, in a solver state of a model built over every tunnel,
    every variable whose tunnel is dead in scenario [sid] and returns
    edge -> whether a tunnel alive in [sid] crosses it.  Allocates only
    that array: it runs on every online allocation. *)

val set_scenario :
  Flexile_lp.Simplex.t ->
  Instance.t ->
  sid:int ->
  l:Flexile_lp.Lp_model.var array ->
  demand_rows:Flexile_lp.Lp_model.row array ->
  cap_rows:Flexile_lp.Lp_model.row array ->
  flow:(Instance.flow -> float -> unit) ->
  unit
(** Sets scenario [sid]'s demands and capacities in a solver state of
    a model built at the base ones, where [demand_rows] maps a flow id
    to its row [sum_t x_t + d_f * l_f >= d_f] (loss variable
    [l.(fid)]) or [-1], and [cap_rows] maps an edge to its capacity
    row or [-1].  A drifted demand becomes the row's RHS and its loss
    coefficient (§4.4 demand scenarios); a flow with no demand in
    [sid] gets RHS 0 and keeps its coefficient, which leaves the row
    slack; every capacity row gets {!Instance.edge_capacity}.  After
    a flow's demand row, [flow f d] runs with [d] its demand in [sid],
    so the caller sets its own per-flow rows and bounds in the same
    pass.  Writes only RHS and coefficients, so it commutes with bound
    changes. *)

val alive : Instance.t -> vars -> sid:int -> Instance.flow -> Flexile_lp.Lp_model.var list
(** The flow's variables on tunnels alive in scenario [sid], in tunnel
    order. *)

val delivered :
  Instance.t -> vars -> sid:int -> Instance.flow -> (Flexile_lp.Lp_model.var -> float) -> float
(** The volume the flow's alive tunnels carry under the assignment
    [xval], summed from [0.] in tunnel order. *)

val losses :
  ?jobs:int ->
  ?grant:(Instance.flow -> float) ->
  Instance.t ->
  routing:(int -> vars) ->
  (Flexile_lp.Lp_model.var -> float) ->
  Instance.losses
(** Post-analysis of an allocation, per scenario through
    {!Scenario_engine.sweep_losses}: in scenario [sid] a flow delivers
    what its alive tunnels of [routing sid] carry, at most its [grant]
    (default unlimited), and loses the rest of its demand in [sid];
    a flow with no demand there loses nothing. *)
