(** The scenario→LP→solution sweep engine.

    Every scheme in the evaluation ultimately runs "for each failure
    scenario: build or specialize an LP, solve it, collect per-flow
    losses".  This module owns that lifecycle so the schemes stop
    hand-rolling their own loops, and fans the per-scenario work out
    over a fixed pool of OCaml domains ({!Flexile_util.Parallel}).

    Determinism contract: results are merged in ascending scenario
    order, and work is sharded statically (scenario [sid] always lands
    on worker [sid mod jobs]).  A per-scenario function that does not
    depend on worker-local history — every sweep in this repository
    builds and solves each scenario's LP afresh — therefore produces
    bit-identical results for every job count.  A worker state built
    by {!sweep}'s [init] sees a deterministic scenario subsequence, so
    a function that carried history in it would still be reproducible
    for a fixed job count.

    [jobs] convention, everywhere in this repository: [0] (or an
    omitted argument) means "auto" — the [FLEXILE_JOBS] environment
    variable if set, otherwise one worker per available core. *)

val sweep :
  ?jobs:int ->
  Instance.t ->
  init:(int -> 'state) ->
  f:('state -> int -> 'a) ->
  'a array
(** [sweep inst ~init ~f] evaluates [f state sid] for every scenario of
    the instance and returns the results indexed by scenario id.
    [init w] creates worker [w]'s private state once per sweep. *)

val sweep_some :
  ?jobs:int ->
  Instance.t ->
  keep:(int -> bool) ->
  f:(int -> 'a) ->
  'a option array
(** Like {!sweep}, without worker state and with shared pruning:
    scenarios for which [keep sid] is false are skipped ([None] in the
    result, [f] never called).
    [keep] is evaluated in the calling domain before the fan-out, so it
    may read mutable bookkeeping (perfect/unchanged scenario sets). *)

val sweep_losses :
  ?jobs:int ->
  Instance.t ->
  f:(int -> (int * float) list) ->
  Instance.losses
(** Post-analysis helper: [f sid] returns the [(fid, loss)] pairs of
    one scenario; the engine merges them into a dense loss matrix,
    clamping to [0, 1] and pinning zero-demand flows to loss 0 (the
    convention shared by every scheme's loss matrix). *)
