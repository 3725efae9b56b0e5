(** The rounding heuristic of the Benders master (formulation (M)),
    evaluated incrementally.

    At a fractional node, {!run} rounds the LP relaxation's criticality
    variables at 0.5, repairs every flow whose critical mass falls short
    of its coverage target (re-adding its uncritical variables, highest
    LP value first, then highest probability), and then locally
    improves: while the largest cut value is positive, it turns off the
    heaviest critical flag of a max-achieving cut whose flow can spare
    the scenario, and keeps the flip only if the largest cut value
    drops.  The candidate respects the Hamming budget (23) when one is
    set.

    Everything that does not depend on the node is built once per
    master by {!create}: the previous plan as flat bytes, each flow's
    variables, each flow's coverage folded up to its first variable,
    and the cuts as flat arrays indexed by target.  A call keeps each
    cut's value and each flow's coverage in a cache; flipping flag
    (f, q) re-folds only flow f's coverage and the cuts that target q.  Every fold runs in the order of a fresh
    fold from scratch, so each float comes out bit for bit as the
    unindexed evaluation computes it. *)

type cut = { target : int; coef : (int * float) array; const : float }
(** A master cut [penalty >= const + sum_{(f, d) in coef} d * z.(f).(target)],
    the scenario [target]'s criticality terms with their duals. *)

type t

val create :
  prob:float array ->
  active:bool array ->
  coverage_target:float array ->
  perfect:bool array ->
  z_prev:bool array array ->
  zv:Flexile_lp.Lp_model.var array array ->
  cuts:cut list ->
  penalty:Flexile_lp.Lp_model.var ->
  nvars:int ->
  hamming_limit:int option ->
  t
(** One evaluator per master.  [prob.(q)] is scenario [q]'s
    probability; [active.(f)] says flow [f] has demand (only those are
    repaired); [coverage_target.(f)] is the mass flow [f] must keep
    critical; a perfect scenario counts as critical for a flow where
    [z_prev] has it.  [zv.(f).(q)] is the master's variable of flag
    (f, q), or [-1] where the flag is fixed; [penalty] is the penalty
    variable and [nvars] the model's variable count.  [cuts] are the
    master's cuts, in the order whose first maximum is reported.

    As in the master, a fixed flag that [z_prev] has on in a
    non-perfect scenario carries no cut dual above 1e-9 (the master
    makes every such flag a variable): the improvement step then turns
    off no flag that counts towards a flow's coverage below its first
    variable, which is what lets that part of the fold be made once. *)

val run : t -> float array -> float array option
(** [run t lp_x] is the candidate for the relaxation [lp_x]: a 0/1
    value per variable of [zv] and the largest cut value at [penalty],
    or [None] when it breaks the Hamming budget.  Every call returns
    the same buffer, rewritten: read it before the next call. *)
