(** Fixed domain pool with a deterministic, ordered parallel [map] over
    the integer indices [0 .. n-1].

    Work is sharded {e statically and cyclically}: with [j] effective
    jobs, index [i] is always processed by worker [i mod j], and each
    worker visits its indices in ascending order.  Two consequences:

    - the result array is in index order and independent of scheduling,
      so a pure [f] gives bit-identical results for every job count;
    - a {e stateful} worker sees a deterministic subsequence of the
      indices, so runs are reproducible for a fixed job count.  Every
      sweep in this repository passes a unit state.

    The sequential fallback (effective jobs = 1, or [n <= 1]) runs
    entirely in the calling domain and spawns nothing. *)

val resolve_jobs : int option -> int
(** [None] and [Some 0] mean "auto": the [FLEXILE_JOBS] environment
    variable if it is set and not empty, otherwise
    [Domain.recommended_domain_count ()], clamped to [1, 64].  [Some j]
    with [j >= 1] is clamped to at most 64.  Raises [Invalid_argument],
    naming the value, when "auto" reads a [FLEXILE_JOBS] that is not a
    positive integer. *)

val map :
  ?jobs:int ->
  n:int ->
  init:(int -> 'state) ->
  f:('state -> int -> 'a) ->
  unit ->
  'a array
(** [map ~n ~init ~f ()] is [[| f s0 0; f s1 1; ... |]] where worker
    [w] evaluates [f] on indices [i] with [i mod jobs = w] using its own
    state [init w] (created once per call, only for workers that have
    work).  A process-global pool of the resolved job count is (re)used
    and joined [at_exit]; one [map] runs at a time, and neither [init]
    nor [f] may call [map].  Each call counts one [parallel.maps],
    whatever the job count.  If any [init] or [f] application raises,
    the first exception (in scheduling order) is re-raised in the
    caller after all workers have drained. *)

type 'a once
(** A cell filled at most once, that any domain may be the first to
    need. *)

val once : unit -> 'a once

val force_once : 'a once -> (unit -> 'a) -> 'a
(** [force_once c f] is the value of [c], computed with [f] by the
    first caller.  [f] runs exactly once: a domain that finds the cell
    empty while another is computing it waits for that value.  If [f]
    raises, the cell stays empty and the exception propagates to that
    caller.  [f] must not force [c] itself. *)
