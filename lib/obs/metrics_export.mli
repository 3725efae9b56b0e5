(** Wire-format renderers over the full {!Flexile_util.Trace} registry:
    Prometheus text exposition and JSON snapshots (a JSONL time series
    when encoded once per monitoring step).

    Pure builders over quiescent-point reads — call only when
    no instrumented work is in flight.

    With [deterministic] (default [false]) the output is restricted to
    metrics that are pure functions of the seeded work: counters
    (minus the [gc.*] family) and value-distribution histograms (minus
    the wall-clock ones, by the [*_seconds] naming convention); gauges,
    timers, spans and probes are dropped, as is the whole [health.*]
    family — the production sampling stride makes those aggregates
    schedule-dependent (DESIGN.md section 15.1).  This subset is what
    makes [flexile monitor] artifacts byte-identical across
    invocations. *)

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

val prometheus : ?deterministic:bool -> unit -> string
(** The registry as Prometheus text exposition format: counters as
    [<name>_total], gauges as plain samples, timers and spans as
    summaries ([<name>_seconds_sum] / [<name>_seconds_count]),
    histograms with cumulative [<name>_bucket{le="..."}] lines, a
    [le="+Inf"] bucket and [_sum] / [_count].  Probes are skipped.
    Each family is preceded by its [# TYPE] line.

    The page always ends with the
    [flexile_trace_drops_total{ring="events"|"spans"}] family (from
    {!Flexile_util.Trace.events_dropped} / [spans_dropped]) — including
    under [deterministic], where a nonzero value flags that the
    deterministic artifacts themselves are built over truncated
    rings. *)

val snapshot_json : ?deterministic:bool -> unit -> Flexile_util.Json.t
(** [{"counters":{..},"gauges":{..},"timers":{..},"histograms":{..}}]
    (spans are folded into [timers]; histogram entries are
    {!Flexile_util.Trace.hist_summary_json}).  Encoded, one JSONL
    record. *)

val histograms_json : unit -> Flexile_util.Json.t
(** Just the histograms, unfiltered, each
    {!Flexile_util.Trace.hist_summary_json} with its raw bucket list — the ["histograms"]
    section embedded by [bench --json]. *)
