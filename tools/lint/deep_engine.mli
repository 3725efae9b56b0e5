(** Typedtree-level interprocedural analysis stage for flexile-lint
    (DESIGN.md section 14).

    Consumes the [.cmt] / [.cmti] artifacts dune produces and enforces
    five rule families the syntactic stage cannot see:

    - [i1-trans-nondet]: forward taint from the [Scenario_engine] /
      [Parallel] entry points (and from every function that hands a
      closure to a shard API) over the call graph; any reachable use of
      a raw nondeterministic primitive is reported with a call-chain
      witness.
    - [i2-shard-capture]: closures passed as [~init] / [~f] into the
      shard APIs must not write captured or module-level mutable state.
    - [i3-noalloc]: the body of a [[\@lint.noalloc]] function and its
      transitive callees must not heap-allocate outside the
      [[\@lint.alloc_ok]] whitelist.
    - [u1-unused-export]: every [val] of an analysed unit's interface
      is referenced by some other unit, analysed or caller.
    - [u2-single-value-knob]: every optional parameter of such a [val]
      is passed explicitly (or forwarded) by some application in an
      analysed or caller unit, and every field of an exported record
      type whose unit exports a [default_*] value of it is set by some
      record expression other than that default's body.

    The walk also reports, under the syntactic id [d1-nondet], a
    [Trace.now_s] / [now_ns] call inside an [if] / [while] condition or
    a [when] guard: a branch decided on the clock.

    The engine does not zone-gate: it analyses exactly the cmts it is
    given (the driver feeds it [lib/], with [bin/], [bench/],
    [flexbench/] and [examples/] as callers; the fixture tests feed it
    seeded-violation modules under [test/]). *)

val analyze :
  ?roots:string list -> ?callers:string list -> string list ->
  Lint_engine.report
(** [analyze cmt_paths] reads each [.cmt], extracts a per-function
    summary (calls, primitive uses, allocation sites, attributes),
    builds the cross-module call graph and runs the analyses; the
    exports u1 and u2 check come from the [.cmti] next to each [.cmt].
    The [callers] cmts are read for the references, applications and
    record expressions they make, nothing else.  [roots] (module
    prefixes whose top-level functions seed the i1 taint walk) defaults
    to [Flexile_te.Scenario_engine] and [Flexile_util.Parallel].
    Unreadable cmts yield a [cmt-error] finding rather than an
    exception.  [files_checked] counts cmts; [used_allows] feeds the
    driver's staleness pass (declaration of suppression sites is the
    syntactic stage's job, since it parses the sources). *)
