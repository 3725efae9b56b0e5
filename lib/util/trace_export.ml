(* The one exporter of the Trace registry.  One renderer ([sections])
   turns the metrics one selection rule ([admits]) keeps into JSON
   values; every artifact is a projection of it: the structured report
   that `flexile --trace` and `bench --json` write, the solver-health
   section, the monitor's JSONL snapshots, the Prometheus text page and
   the counter samples of the Chrome trace.  Callers encode with
   Json.encode. *)

(* ------------------------------------------------------------------ *)
(* Selection                                                           *)
(* ------------------------------------------------------------------ *)

type selection =
  | Full  (* the --trace report: every metric *)
  | Deterministic  (* the JSONL snapshots and the Prometheus page *)
  | Health  (* the solver-health section *)

(* The sections an artifact carries, in order. *)
let kinds = function
  | Full -> Trace.[ Counter; Gauge; Timer; Span; Hist ]
  | Deterministic | Health -> Trace.[ Counter; Hist ]

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
let admits sel (name, kind) =
  let prefix p = String.starts_with ~prefix:p name in
  List.mem kind (kinds sel)
  &&
  match sel with
  | Full -> true
  | Health -> prefix "health." || prefix "simplex."
  | Deterministic -> (
      (not (prefix "health."))
      &&
      match kind with
      | Trace.Counter -> not (prefix "gc.")
      | _ -> not (String.ends_with ~suffix:"_seconds" name))

(* ------------------------------------------------------------------ *)
(* The renderer                                                        *)
(* ------------------------------------------------------------------ *)

let section_name = function
  | Trace.Counter -> "counters"
  | Trace.Gauge -> "gauges"
  | Trace.Timer -> "timers"
  | Trace.Span -> "spans"
  | Trace.Hist -> "histograms"

(* [{"count":n,"sum":s,"min":m,"max":M,"p50":..,"p90":..,"p95":..,
   "p99":..}] plus, with [buckets], the raw (not cumulative)
   [[upper bound,count],..] list.  Non-finite fields (empty recorder)
   encode as null. *)
let hist_json ~buckets (s : Trace.hist_snapshot) =
  let quantiles =
    List.map
      (fun (label, q) -> (label, Json.Number (Trace.hist_quantile_of s q)))
      [ ("p50", 0.50); ("p90", 0.90); ("p95", 0.95); ("p99", 0.99) ]
  in
  let bucket_list =
    if buckets then
      [
        ( "buckets",
          Json.Array
            (List.map
               (fun (ub, c) -> Json.Array [ Json.Number ub; Json.int c ])
               s.Trace.hist_buckets) );
      ]
    else []
  in
  Json.Object
    ([
       ("count", Json.int s.Trace.hist_count);
       ("sum", Json.Number s.Trace.hist_sum);
       ("min", Json.Number s.Trace.hist_min);
       ("max", Json.Number s.Trace.hist_max);
     ]
    @ quantiles @ bucket_list)

let metric_json ~buckets name = function
  | Trace.Counter | Trace.Gauge -> Json.int (Trace.value_by_name name)
  | Trace.Timer | Trace.Span ->
      (* spans reuse the timer accumulators, so totals by name are free *)
      Json.Object
        [
          ("seconds", Json.Number (Trace.timer_seconds_by_name name));
          ("count", Json.int (Trace.timer_count_by_name name));
        ]
  | Trace.Hist -> hist_json ~buckets (Trace.hist_snapshot_by_name name)

(* The selected metrics by kind, each section sorted by name. *)
let sections sel ~buckets =
  let metrics = List.filter (admits sel) (Trace.registry ()) in
  List.map
    (fun kind ->
      ( kind,
        List.filter_map
          (fun (name, k) ->
            if k = kind then Some (name, metric_json ~buckets name k) else None)
          metrics ))
    (kinds sel)

let fields sel ~buckets =
  List.map
    (fun (kind, metrics) -> (section_name kind, Json.Object metrics))
    (sections sel ~buckets)

(* ------------------------------------------------------------------ *)
(* JSON documents                                                      *)
(* ------------------------------------------------------------------ *)

(* Times are relative to the earliest root, as in the Chrome export, so
   every value stays an exact integer below 2^53. *)
let span_tree_json () =
  let roots = Trace.span_trees () in
  let t_min =
    List.fold_left
      (fun acc (t : Trace.span_tree) -> min acc t.Trace.node_t0_ns)
      Int64.max_int roots
  in
  let ns t = Json.Number (Int64.to_float t) in
  let rec node (t : Trace.span_tree) =
    Json.Object
      [
        ("name", Json.String t.Trace.node_name);
        ("arg", Json.int t.Trace.node_arg);
        ("dom", Json.int t.Trace.node_dom);
        ("t0_ns", ns (Int64.sub t.Trace.node_t0_ns t_min));
        ("dur_ns", ns (Int64.sub t.Trace.node_t1_ns t.Trace.node_t0_ns));
        ("minor_words", Json.Number t.Trace.node_minor_words);
        ("major_words", Json.Number t.Trace.node_major_words);
        ("children", Json.Array (List.map node t.Trace.node_children));
      ]
  in
  Json.Array (List.map node roots)

let solver_health_json () =
  Json.Object
    (("schema", Json.String "flexile-solver-health")
    :: ("version", Json.int 1)
    :: fields Health ~buckets:false)

let report_json () =
  Json.Object
    [
      ("enabled", Json.Bool (Trace.enabled ()));
      ("report", Json.Object (fields Full ~buckets:true));
      ("solver_health", solver_health_json ());
      ("span_tree", span_tree_json ());
      (* a nonzero drop count means the span_tree above is truncated —
         silent truncation would read as "nothing else happened" *)
      ( "drops",
        Json.Object
          [
            ("span_records_logged", Json.int (Trace.spans_logged ()));
            ("span_records_dropped", Json.int (Trace.spans_dropped ()));
            ("spans_open", Json.int (Trace.spans_open ()));
          ] );
    ]

let snapshot_json () = Json.Object (fields Deterministic ~buckets:false)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

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

let number = function Json.Number x -> x | _ -> Float.nan

let field key j =
  match Json.member key j with Some v -> v | None -> Json.Null

(* The deterministic sections as exposition, one family per metric in
   name order: counters as [<name>_total], histograms with cumulative
   [_bucket{le="..."}] lines, a [+Inf] bucket, [_sum] and [_count].
   Counts print through Json.encode's integer rule, so they read as
   plain digits. *)
let prometheus () =
  let b = Buffer.create 4096 in
  let metrics =
    List.concat_map
      (fun (kind, metrics) -> List.map (fun (name, v) -> (name, kind, v)) metrics)
      (sections Deterministic ~buckets:true)
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  List.iter
    (fun (name, kind, v) ->
      let p = prom_name name in
      match (kind : Trace.metric_kind) with
      | Trace.Hist ->
          Printf.bprintf b "# TYPE %s histogram\n" p;
          (* exposition-format buckets are cumulative *)
          let cum = ref 0. in
          List.iter
            (function
              | Json.Array [ ub; c ] ->
                  cum := !cum +. number c;
                  Printf.bprintf b "%s_bucket{le=\"%s\"} %s\n" p
                    (fnum (number ub))
                    (Json.encode (Json.Number !cum))
              | _ -> ())
            (Option.value ~default:[] (Json.to_list (field "buckets" v)));
          let count = Json.encode (field "count" v) in
          Printf.bprintf b "%s_bucket{le=\"+Inf\"} %s\n" p count;
          Printf.bprintf b "%s_sum %s\n" p (fnum (number (field "sum" v)));
          Printf.bprintf b "%s_count %s\n" p count
      | _ ->
          Printf.bprintf b "# TYPE %s_total counter\n%s_total %s\n" p p
            (Json.encode v))
    metrics;
  (* Span-record saturation is always exported: a nonzero drop total
     means the span records behind the other artifacts are truncated,
     and omitting the family would make the scrape page lie by omission
     exactly when it matters. *)
  Buffer.add_string b "# TYPE flexile_trace_drops_total counter\n";
  Printf.bprintf b "flexile_trace_drops_total{ring=\"spans\"} %d\n"
    (Trace.spans_dropped ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome trace-event format                                           *)
(* ------------------------------------------------------------------ *)

(* One JSON-object-format document: complete (`X`) events for spans on
   a per-domain track, and one final counter (`C`) sample per counter
   and gauge of the full report.  Timestamps are microseconds relative
   to the earliest recorded span, as the format requires. *)
let chrome_json () =
  let spans = Trace.span_records () in
  let t_min =
    List.fold_left
      (fun acc (r : Trace.span_record) -> min acc r.Trace.span_t0_ns)
      Int64.max_int spans
  in
  let t_min = if t_min = Int64.max_int then 0L else t_min in
  let us t = Int64.to_float (Int64.sub t t_min) /. 1e3 in
  (* every event is ph, name, [head], pid, tid, [tail], args *)
  let event ph name ?(head = []) ~tid ?(tail = []) args =
    Json.Object
      ((("ph", Json.String ph) :: ("name", Json.String name) :: head)
      @ (("pid", Json.int 0) :: ("tid", Json.int tid) :: tail)
      @ [ ("args", Json.Object args) ])
  in
  let ts t = ("ts", Json.Number t) in
  let doms =
    List.sort_uniq compare
      (List.map (fun (r : Trace.span_record) -> r.Trace.span_dom) spans)
  in
  let metadata =
    event "M" "process_name" ~tid:0 [ ("name", Json.String "flexile") ]
    :: List.map
         (fun d ->
           event "M" "thread_name" ~tid:d
             [ ("name", Json.String (Printf.sprintf "domain %d" d)) ])
         doms
  in
  let span_events =
    List.map
      (fun (r : Trace.span_record) ->
        let dur =
          Int64.to_float (Int64.sub r.Trace.span_t1_ns r.Trace.span_t0_ns) /. 1e3
        in
        event "X" r.Trace.span_name
          ~head:[ ("cat", Json.String "span") ]
          ~tid:r.Trace.span_dom
          ~tail:[ ts (us r.Trace.span_t0_ns); ("dur", Json.Number dur) ]
          [
            ("arg", Json.int r.Trace.span_arg);
            ("depth", Json.int r.Trace.span_depth);
            ("minor_words", Json.Number r.Trace.span_minor_words);
            ("major_words", Json.Number r.Trace.span_major_words);
          ])
      spans
  in
  (* final counter samples: Trace aggregates totals, not series, so a
     single C event at the trace's end still surfaces every counter and
     gauge in Perfetto's counter tracks *)
  let t_end =
    List.fold_left
      (fun acc (r : Trace.span_record) -> max acc (us r.Trace.span_t1_ns))
      0. spans
  in
  let counter_events =
    List.concat_map
      (fun (kind, metrics) ->
        match (kind : Trace.metric_kind) with
        | Trace.Counter | Trace.Gauge ->
            List.map
              (fun (name, v) ->
                event "C" name ~tid:0 ~tail:[ ts t_end ] [ ("value", v) ])
              metrics
        | _ -> [])
      (sections Full ~buckets:false)
  in
  Json.Object
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.Array (metadata @ span_events @ counter_events));
    ]
