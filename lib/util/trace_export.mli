(** JSON projections of {!Trace}'s quiescent-point reads; callers
    encode them with {!Json.encode} where the file is written. *)

val report_json : ?derived:(string * float) list -> unit -> Json.t
(** The structured report written by [flexile --trace] and embedded by
    [bench --json]:
    [{"derived":{..}, "report":<full registry>, "solver_health":{..},
      "span_tree":[..], "drops":{..}}].
    [report] is {!Trace.to_json} — {e every} registered counter, gauge,
    timer, histogram and span total, across all instrumented modules;
    [derived] carries caller-computed summary ratios; [span_tree] is
    the nested span forest ([{"name","arg","dom","t0_ns","dur_ns",
    "minor_words","major_words","children":[..]}], [t0_ns] relative to
    the earliest root); [drops] surfaces
    ring/record saturation ([events_logged], [events_dropped],
    [span_records_logged], [span_records_dropped], [spans_open]) so a
    truncated span tree or event stream is visible rather than
    silent. *)

val solver_health_json : unit -> Json.t
(** The numerical-health section: a schema'd
    ([{"schema":"flexile-solver-health","version":1,...}]) projection
    of every [health.*] counter and histogram (samples, threshold
    trips, stalls, residual/condition/growth distributions — see
    [Flexile_lp.Health]) plus the [simplex.*] counters that give them
    context.  Embedded in {!report_json} and in the
    [flexile doctor TOPOLOGY] report so dashboards read solver health
    without parsing the full registry. *)

val chrome_json : unit -> Json.t
(** Chrome trace-event JSON (object format), loadable in Perfetto /
    chrome://tracing: one track per domain, complete [X] events for
    spans (args carry the span tag, depth and GC allocation deltas),
    instant [i] events for probes, and one final [C] sample per
    counter/gauge.  Timestamps are microseconds relative to the
    earliest recorded instant. *)
