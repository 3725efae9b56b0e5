(** The one exporter of the {!Trace} registry.  Every document below
    is a projection of one renderer over one selection rule, so a
    metric reads the same in each artifact that carries it:

    - the full registry: {!report_json} (histograms with their bucket
      lists) and the counter samples of {!chrome_json};
    - the {e deterministic} subset: {!snapshot_json} and
      {!prometheus}.  It holds the metrics that are pure functions of
      the seeded work: counters (minus the [gc.*] family) and
      value-distribution histograms (minus the wall-clock ones, by the
      [*_seconds] naming convention), and drops the whole [health.*]
      family, whose production sampling stride makes it
      schedule-dependent (DESIGN.md section 15.1).  This subset is
      what makes [flexile monitor] and [flexile explain] artifacts
      byte-identical across invocations;
    - the [health.*] and [simplex.*] counters and histograms: the
      [solver_health] section of {!report_json}.

    Pure builders over quiescent-point reads — call only when no
    instrumented work is in flight; callers encode with {!Json.encode}
    where the file is written. *)

val report_json : unit -> Json.t
(** The structured report written by [flexile --trace] and embedded by
    [bench --json]:
    [{"enabled":bool,"report":{..},"solver_health":{..},
      "span_tree":[..],"drops":{..}}].
    [report] is the full registry, keys sorted by name:
    [{"counters":{..},"gauges":{..},
      "timers":{name:{"seconds":s,"count":n},..},"spans":{..},
      "histograms":{name:{"count","sum","min","max","p50","p90","p95",
      "p99","buckets":[[upper bound,count],..]},..}}]
    (raw bucket counts, not cumulative; non-finite fields of an empty
    histogram encode as [null]).  [solver_health] is
    [{"schema":"flexile-solver-health","version":1,"counters":{..},
    "histograms":{..}}] over the [health.*] metrics (samples, threshold
    trips, stalls, residual/condition/growth distributions — see
    [Flexile_lp.Health]) and the [simplex.*] ones that give them
    context, histograms without bucket lists, so dashboards read solver
    health without parsing the full registry.  [span_tree] is the
    nested span forest ([{"name","arg","dom","t0_ns","dur_ns",
    "minor_words","major_words","children":[..]}], [t0_ns] relative to
    the earliest root); [drops]
    carries [span_records_logged], [span_records_dropped] and
    [spans_open], so a truncated span tree is visible rather than
    silent. *)

val snapshot_json : unit -> Json.t
(** [{"counters":{..},"histograms":{..}}] over the deterministic
    subset, histograms without bucket lists.  Encoded, one JSONL
    record of [flexile monitor]. *)

val prometheus : unit -> string
(** The deterministic subset as Prometheus text exposition: counters
    as [<name>_total], histograms with cumulative
    [<name>_bucket{le="..."}] lines, a [le="+Inf"] bucket and
    [_sum] / [_count]; each family preceded by its [# TYPE] line and
    named [flexile_] plus the metric name with every character outside
    [[a-zA-Z0-9_:]] mapped to [_].  The page always ends with the
    [flexile_trace_drops_total{ring="spans"}] family, so a nonzero
    value flags span records lost to the capacity cap. *)

val labeled_gauge :
  name:string -> ((string * string) list * float) list -> string
(** Render one labeled gauge family: [# TYPE] line plus one sample per
    [(labels, value)] in the given order.  The family name gets the
    [flexile_] prefix, and in it and in label names every character
    outside [[a-zA-Z0-9_:]] becomes [_].  Label values, which carry
    arbitrary catalog names (class/regime tags), are escaped per the
    text exposition format: backslash, double quote and line feed
    become backslash-escaped, all other bytes pass through verbatim.
    Append the result to a {!prometheus} page. *)

val chrome_json : unit -> Json.t
(** Chrome trace-event JSON (object format), loadable in Perfetto /
    chrome://tracing: one track per domain, complete [X] events for
    spans (args carry the span tag, depth and GC allocation deltas),
    and one final [C] sample per counter and gauge of the full
    registry.  Timestamps are microseconds relative to the earliest
    recorded span. *)
