(** Low-overhead, domain-safe observability for the solver stack.

    The module keeps one private state per domain (counters, gauges,
    timer accumulators, histograms and span records), reached through
    domain-local storage, so the hot-path operations never contend on a
    lock.  Aggregation happens only at read time, by folding over every
    domain's state, and is meant to be called at {e quiescent points} —
    after a {!Parallel.map} has returned, when the pool's handoff
    protocol has already published the workers' writes.

    Tracing is disabled by default; a disabled operation costs exactly one
    load-and-branch per operation.  It is enabled either
    programmatically ({!set_enabled}, e.g. by [flexile --trace] and the
    bench harness) or by setting the [FLEXILE_TRACE] environment
    variable to anything but [0]/[false]/[off].  [FLEXILE_TRACE=0]
    explicitly vetoes tracing ({!env_disabled}), which the bench harness
    honors when measuring overhead.

    This module holds the state and its typed reads and renders
    nothing: every document built from the registry (the [--trace]
    report, the Prometheus page, the monitor's JSONL snapshots, the
    solver-health section and the Chrome trace) is a projection written
    by {!Trace_export}.

    Determinism: counter values are integer sums over domains, so they
    are identical for every job count whenever the traced work is
    (which holds for every default — cold-solve — pipeline in this
    repository).  Timer and gauge values are wall-clock measurements
    and vary run to run by nature. *)

(** {1 Enabling} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val env_disabled : unit -> bool
(** [true] iff the [FLEXILE_TRACE] environment variable explicitly
    disables tracing ([0], [false], [off] or empty).  Harnesses that
    enable tracing by default check this first. *)

(** {1 Metrics}

    Handles are registered by name in a process-global registry
    (idempotent: the same name always yields the same handle).
    Registration takes a mutex — create handles once at module
    initialization or per coarse-grained call, never in inner loops. *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

type gauge

val gauge : string -> gauge

val gauge_max : gauge -> int -> unit
(** Record an observation; the gauge keeps the maximum. *)

type timer

val timer : string -> timer

val with_span : timer -> (unit -> 'a) -> 'a
(** Run the thunk and accumulate its monotonic-clock duration (and one
    span count) into the calling domain's slot.  Exceptions propagate
    after the span is recorded.  When disabled this is one branch and a
    tail call. *)

val add_ns : timer -> int64 -> unit
(** Accumulate an externally-measured duration. *)

val now_ns : unit -> int64
(** Monotonic clock ([CLOCK_MONOTONIC]), nanoseconds.  For callers
    measuring sections that cannot be wrapped in a closure. *)

val now_s : unit -> float
(** [now_ns] scaled to seconds.  This is the only sanctioned wall-clock
    source in [lib/] ([flexile-lint] rule [d1-nondet] bans
    [Unix.gettimeofday] / [Sys.time] there): elapsed-time results stay
    comparable and immune to system clock steps. *)

(** {1 Histograms}

    Per-domain log-bucketed (HDR-style) distribution recorders: the
    positive axis is split into binary octaves of 16 linear
    sub-buckets, so any bucket is at most ~6.25% wide relative to its
    value, and a quantile read off a bucket's upper bound
    over-estimates the true sample quantile by less than that.  Slot 0
    collects zero, negative and NaN observations; the finite range
    covers [2^-31, 2^34) and clamps outside it.  The hot-path
    {!observe} touches only the calling domain's count array (no
    locks, no allocation after the first observation), and costs one
    load-and-branch when tracing is disabled.

    Merging at quiescent points sums the per-domain integer bucket
    counts, so the merged distribution — and every quantile — is
    deterministic: identical to a sequential run observing the same
    multiset, for any job count. *)

type hist

val hist : string -> hist

val observe : hist -> float -> unit
(** Record one observation into the calling domain's recorder. *)

val observe_duration : hist -> (unit -> 'a) -> 'a
(** Run the thunk and observe its monotonic-clock duration in {e
    seconds}.  Exceptions propagate after the observation; one branch
    and a tail call when disabled. *)

type hist_snapshot = {
  hist_count : int;  (** observations, NaN included *)
  hist_sum : float;  (** sum of the finite observations *)
  hist_min : float;  (** exact; [nan] when no finite observation *)
  hist_max : float;  (** exact; [nan] when no finite observation *)
  hist_buckets : (float * int) list;
      (** non-empty buckets, ascending: [(upper bound, count)].
          Buckets are [lower, upper); the nonpositive slot reports
          bound 0. *)
}

val hist_quantile_of : hist_snapshot -> float -> float
(** [hist_quantile_of s q] with [q] in [0,1]: the upper bound of the
    smallest bucket holding at least a fraction [q] of the
    observations (clamped to the exact maximum, so [q >= 1] and
    single-valued histograms are exact).  [nan] when empty;
    nondecreasing in [q]. *)

(** {1 Hierarchical spans}

    Where timers only accumulate totals, spans additionally record the
    {e shape} of the computation: each domain keeps a stack of open
    spans, and closing one appends a record carrying its begin/end
    timestamps, its parent (by per-domain begin sequence), its nesting
    depth, and the words allocated while it was open
    ([Gc.quick_stat] deltas, minor and major, for the recording
    domain).  Per-domain records are capped at 65536; further spans
    still accumulate into the by-name totals but are counted as
    dropped rather than stored.

    The merged record list is ordered by [(domain id, begin seq)] —
    a pre-order traversal of each domain's span forest — and is what
    the Chrome trace-event exporter ({!Trace_export}) serializes, one
    track per domain. *)

type span

val span : string -> span

val in_span : ?arg:int -> span -> (unit -> 'a) -> 'a
(** Run the thunk inside a new span (child of the calling domain's
    innermost open span).  Records on exit, exceptions included; a
    single branch when disabled.  [arg] tags the record (iteration
    number, scenario id, worker slot, ...). *)

type span_record = {
  span_name : string;
  span_arg : int;
  span_dom : int;  (** id of the recording domain *)
  span_seq : int;  (** per-domain begin sequence *)
  span_parent : int;  (** parent's begin seq within the domain, -1 = root *)
  span_depth : int;  (** nesting depth at begin, 0 = root *)
  span_t0_ns : int64;
  span_t1_ns : int64;
  span_minor_words : float;  (** words allocated in the minor heap *)
  span_major_words : float;
}

val span_records : unit -> span_record list
(** Completed spans, ordered by [(dom, seq)].  Quiescent-point read. *)

type span_tree = {
  node_name : string;
  node_arg : int;
  node_dom : int;
  node_t0_ns : int64;
  node_t1_ns : int64;
  node_minor_words : float;
  node_major_words : float;
  node_children : span_tree list;  (** in begin order *)
}

val span_trees : unit -> span_tree list
(** The span forest: roots ordered by [(dom, seq)], children in begin
    order.  Spans whose parent record was dropped by the capacity cap
    are omitted rather than misattached. *)

val spans_logged : unit -> int
val spans_dropped : unit -> int

val spans_open : unit -> int
(** Spans begun but not yet ended, over all domains.  [0] at any
    quiescent point — the balance invariant the tests check. *)

(** {1 Aggregated reads} *)

type metric_kind = Counter | Gauge | Timer | Span | Hist

val registry : unit -> (string * metric_kind) list
(** Every registered metric name with its kind, sorted by name — the
    enumeration {!Trace_export} renders. *)

val value_by_name : string -> int
(** Counter value (sum over all domains) or gauge value (max over all
    domains, [0] if never set) by registered name; [0] for unknown
    names.  Quiescent-point read, as are the three below. *)

val hist_snapshot_by_name : string -> hist_snapshot
(** Merged over all domains; empty for unknown names. *)

val timer_seconds_by_name : string -> float
(** [0.] for unknown names. *)

val timer_count_by_name : string -> int
(** Span count of a timer or span by registered name; [0] for unknown
    names. *)

val reset : unit -> unit
(** Zero every counter, gauge, timer, histogram and span record in
    every registered domain state.  Quiescent-point operation. *)
