(* Render the full Trace registry in wire formats monitoring stacks
   consume: Prometheus text exposition (one scrape page) and one-line
   JSON snapshots (a JSONL time series when written per monitoring
   step).  Pure builders over Trace's quiescent-point reads — callers
   decide where the bytes go. *)

module Trace = Flexile_util.Trace
module Json = Flexile_util.Json

(* Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; the registry
   uses dotted names ("simplex.iterations_per_solve"), so map every
   other character to '_'.  The "flexile_" prefix both namespaces the
   scrape page and guarantees a valid leading character. *)
let prom_name name =
  "flexile_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

(* Deterministic subset: metrics whose values are pure functions of
   the (seeded) work — integer counters and value-distribution
   histograms.  Wall-clock measurements (timers, spans, duration
   histograms by the "_seconds" naming convention), high-water gauges
   and GC counters vary run to run and would break the monitor's
   byte-identical-artifacts guarantee.  Solver-health metrics
   ("health." prefix) are excluded for the same reason: production
   sampling passes a per-domain stride (DESIGN.md section 15.1), so
   which solves get measured depends on how the scheduler spread work
   across domains — statistical observability, not a deterministic
   artifact.  Doctor reports carry the deterministic health story. *)
let deterministic_metric (name, kind) =
  if String.starts_with ~prefix:"health." name then false
  else
    match (kind : Trace.metric_kind) with
    | Trace.Counter -> not (String.starts_with ~prefix:"gc." name)
    | Trace.Hist -> not (String.ends_with ~suffix:"_seconds" name)
    | Trace.Gauge | Trace.Timer | Trace.Span | Trace.Probe -> false

let select ~deterministic =
  let all = Trace.registry () in
  if deterministic then List.filter deterministic_metric all else all

(* Prometheus floats: literal NaN / +Inf / -Inf, else shortest-ish
   round-trippable decimal. *)
let fnum v =
  if Float.is_finite v then Printf.sprintf "%.9g" v
  else if Float.is_nan v then "NaN"
  else if v > 0. then "+Inf"
  else "-Inf"

(* Prometheus label VALUES have their own escaping rules (exposition
   format): backslash, double quote and line feed must be escaped;
   everything else is passed through verbatim.  Metric and label NAMES
   are sanitized structurally (prom_name) instead. *)
let label_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* A labeled gauge family: one # TYPE line, then one sample per
   (label set, value) in the given order.  Label names go through
   prom_name's character class (minus the prefix); label values are
   escaped per the exposition format. *)
let labeled_gauge ~name samples =
  let b = Buffer.create 256 in
  let sane =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
  in
  Printf.bprintf b "# TYPE %s gauge\n" (prom_name name);
  List.iter
    (fun (labels, v) ->
      Buffer.add_string b (prom_name name);
      if labels <> [] then begin
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, value) ->
            if i > 0 then Buffer.add_char b ',';
            Printf.bprintf b "%s=\"%s\"" (sane k) (label_escape value))
          labels;
        Buffer.add_char b '}'
      end;
      Printf.bprintf b " %s\n" (fnum v))
    samples;
  Buffer.contents b

let bprint_prom_hist b p (s : Trace.hist_snapshot) =
  Printf.bprintf b "# TYPE %s histogram\n" p;
  (* exposition-format buckets are cumulative *)
  let cum = ref 0 in
  List.iter
    (fun (ub, c) ->
      cum := !cum + c;
      Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" p (fnum ub) !cum)
    s.Trace.hist_buckets;
  Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" p s.Trace.hist_count;
  Printf.bprintf b "%s_sum %s\n" p (fnum s.Trace.hist_sum);
  Printf.bprintf b "%s_count %d\n" p s.Trace.hist_count

let prometheus ?(deterministic = false) () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, kind) ->
      let p = prom_name name in
      match (kind : Trace.metric_kind) with
      | Trace.Counter ->
          Printf.bprintf b "# TYPE %s_total counter\n%s_total %d\n" p p
            (Trace.value_by_name name)
      | Trace.Gauge ->
          Printf.bprintf b "# TYPE %s gauge\n%s %d\n" p p
            (Trace.value_by_name name)
      | Trace.Timer | Trace.Span ->
          (* totals-only accumulators map onto a summary with no
             quantile lines *)
          Printf.bprintf b
            "# TYPE %s_seconds summary\n%s_seconds_sum %s\n%s_seconds_count %d\n"
            p p
            (fnum (Trace.timer_seconds_by_name name))
            p
            (Trace.timer_count_by_name name)
      | Trace.Hist -> bprint_prom_hist b p (Trace.hist_snapshot_by_name name)
      | Trace.Probe ->
          (* event streams have no scalar exposition; the ring totals
             already surface through trace.events_* counters *)
          ())
    (select ~deterministic);
  (* Ring saturation is always exported — deterministic mode included:
     a nonzero drop total means the event stream / span records behind
     every other artifact are truncated, and omitting the family would
     make the scrape page lie by omission exactly when it matters. *)
  Buffer.add_string b "# TYPE flexile_trace_drops_total counter\n";
  Printf.bprintf b "flexile_trace_drops_total{ring=\"events\"} %d\n"
    (Trace.events_dropped ());
  Printf.bprintf b "flexile_trace_drops_total{ring=\"spans\"} %d\n"
    (Trace.spans_dropped ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON snapshots                                                      *)
(* ------------------------------------------------------------------ *)

let snapshot_json ?(deterministic = false) () =
  let metrics = select ~deterministic in
  let section keep render =
    Json.Object
      (List.filter_map
         (fun (name, kind) -> if keep kind then Some (name, render name) else None)
         metrics)
  in
  Json.Object
    [
      ( "counters",
        section (fun k -> k = Trace.Counter) (fun n -> Json.int (Trace.value_by_name n)) );
      ( "gauges",
        section (fun k -> k = Trace.Gauge) (fun n -> Json.int (Trace.value_by_name n)) );
      ( "timers",
        section
          (fun k -> k = Trace.Timer || k = Trace.Span)
          (fun n ->
            Json.Object
              [
                ("seconds", Json.Number (Trace.timer_seconds_by_name n));
                ("count", Json.int (Trace.timer_count_by_name n));
              ]) );
      ( "histograms",
        section
          (fun k -> k = Trace.Hist)
          (fun n -> Trace.hist_summary_json (Trace.hist_snapshot_by_name n)) );
    ]

let histograms_json () =
  Json.Object
    (List.filter_map
       (fun (name, kind) ->
         match (kind : Trace.metric_kind) with
         | Trace.Hist ->
             Some
               ( name,
                 Trace.hist_summary_json ~buckets:true
                   (Trace.hist_snapshot_by_name name) )
         | _ -> None)
       (Trace.registry ()))
