(* Serializers over Trace's quiescent-point reads: the structured
   report (full metric registry + span tree) that `flexile --trace`
   and `bench --json` write, and the Chrome trace-event document
   (`--trace-chrome` / `bench --chrome`) loadable in Perfetto or
   chrome://tracing. *)

(* ------------------------------------------------------------------ *)
(* Structured report                                                   *)
(* ------------------------------------------------------------------ *)

let rec bprint_tree b (t : Trace.span_tree) =
  Printf.bprintf b
    "{\"name\":\"%s\",\"arg\":%d,\"dom\":%d,\"t0_ns\":%Ld,\"dur_ns\":%Ld,\"minor_words\":%.0f,\"major_words\":%.0f,\"children\":["
    (Json.escape t.Trace.node_name)
    t.Trace.node_arg t.Trace.node_dom t.Trace.node_t0_ns
    (Int64.sub t.Trace.node_t1_ns t.Trace.node_t0_ns)
    t.Trace.node_minor_words t.Trace.node_major_words;
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      bprint_tree b c)
    t.Trace.node_children;
  Buffer.add_string b "]}"

let span_tree_json () =
  let b = Buffer.create 1024 in
  Buffer.add_char b '[';
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char b ',';
      bprint_tree b t)
    (Trace.span_trees ());
  Buffer.add_char b ']';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Solver-health section                                               *)
(* ------------------------------------------------------------------ *)

(* Schema'd projection of the numerical-health observatory: every
   [health.*] metric (samples, trips, stalls, residual/condition/growth
   histograms — see Flexile_lp.Health) plus the [simplex.*] counters
   that give them context (warm-start attempts/fallbacks, refactor
   cadence).  Emitted as its own section in `--trace` reports and in
   the `flexile doctor TOPOLOGY` report, so dashboards can read solver
   health without parsing the full registry. *)
let solver_health_schema = "flexile-solver-health"
let solver_health_version = 1

let solver_health_json () =
  let keep name = function
    | Trace.Counter ->
        String.starts_with ~prefix:"health." name
        || String.starts_with ~prefix:"simplex." name
    | Trace.Hist -> String.starts_with ~prefix:"health." name
    | _ -> false
  in
  let metrics =
    List.filter (fun (n, k) -> keep n k) (Trace.registry ())
  in
  let jnum v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null" in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"schema\":\"%s\",\"version\":%d,\"counters\":{"
    solver_health_schema solver_health_version;
  let first = ref true in
  List.iter
    (fun (name, kind) ->
      if kind = Trace.Counter then begin
        if !first then first := false else Buffer.add_char b ',';
        Printf.bprintf b "\"%s\":%d" (Json.escape name)
          (Trace.value_by_name name)
      end)
    metrics;
  Buffer.add_string b "},\"histograms\":{";
  let first = ref true in
  List.iter
    (fun (name, kind) ->
      if kind = Trace.Hist then begin
        if !first then first := false else Buffer.add_char b ',';
        let s = Trace.hist_snapshot_by_name name in
        Printf.bprintf b "\"%s\":{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s"
          (Json.escape name) s.Trace.hist_count (jnum s.Trace.hist_sum)
          (jnum s.Trace.hist_min) (jnum s.Trace.hist_max);
        List.iter
          (fun (label, q) ->
            Printf.bprintf b ",\"%s\":%s" label
              (jnum (Trace.hist_quantile_of s q)))
          [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ];
        Buffer.add_char b '}'
      end)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let report_json ?(derived = []) () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\"derived\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\": %.6g" (Json.escape k) v)
    derived;
  (* [report] is the full registry — every module's counters, gauges,
     timers and span totals, not just the offline solver's *)
  Printf.bprintf b "},\"report\":%s,\"solver_health\":%s,\"span_tree\":%s"
    (Trace.to_json ())
    (solver_health_json ())
    (span_tree_json ());
  (* ring/record saturation at top level: a nonzero drop count means
     the span_tree above (and the event stream) is truncated — silent
     truncation would read as "nothing else happened" *)
  Printf.bprintf b
    ",\"drops\":{\"events_logged\":%d,\"events_dropped\":%d,\"span_records_logged\":%d,\"span_records_dropped\":%d,\"spans_open\":%d}}"
    (Trace.events_logged ()) (Trace.events_dropped ()) (Trace.spans_logged ())
    (Trace.spans_dropped ()) (Trace.spans_open ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome trace-event format                                           *)
(* ------------------------------------------------------------------ *)

(* One JSON-object-format document: complete (`X`) events for spans on
   a per-domain track, instant (`i`) events for probes, and one final
   counter (`C`) sample per counter/gauge.  Timestamps are microseconds
   relative to the earliest recorded instant, as the format requires. *)
let chrome_json () =
  let spans = Trace.span_records () in
  let events = Trace.events () in
  let t_min =
    List.fold_left
      (fun acc (r : Trace.span_record) -> min acc r.Trace.span_t0_ns)
      Int64.max_int spans
    |> fun acc ->
    List.fold_left
      (fun acc (e : Trace.event_record) -> min acc e.Trace.t_ns)
      acc events
  in
  let t_min = if t_min = Int64.max_int then 0L else t_min in
  let us t = Int64.to_float (Int64.sub t t_min) /. 1e3 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit fmt =
    if !first then first := false else Buffer.add_char b ',';
    Printf.bprintf b fmt
  in
  emit
    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"flexile\"}}";
  let doms =
    List.sort_uniq compare
      (List.map (fun (r : Trace.span_record) -> r.Trace.span_dom) spans
      @ List.map (fun (e : Trace.event_record) -> e.Trace.dom) events)
  in
  List.iter
    (fun d ->
      emit
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
        d d)
    doms;
  List.iter
    (fun (r : Trace.span_record) ->
      emit
        "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"span\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%d,\"depth\":%d,\"minor_words\":%.0f,\"major_words\":%.0f}}"
        (Json.escape r.Trace.span_name)
        r.Trace.span_dom (us r.Trace.span_t0_ns)
        (Int64.to_float (Int64.sub r.Trace.span_t1_ns r.Trace.span_t0_ns)
        /. 1e3)
        r.Trace.span_arg r.Trace.span_depth r.Trace.span_minor_words
        r.Trace.span_major_words)
    spans;
  List.iter
    (fun (e : Trace.event_record) ->
      emit
        "{\"ph\":\"i\",\"name\":\"%s\",\"cat\":\"probe\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"args\":{\"arg\":%d}}"
        (Json.escape e.Trace.name) e.Trace.dom (us e.Trace.t_ns) e.Trace.arg)
    events;
  (* final counter samples: Trace aggregates totals, not series, so a
     single C event at the trace's end still surfaces every counter and
     gauge in Perfetto's counter tracks *)
  let t_end =
    List.fold_left
      (fun acc (r : Trace.span_record) -> max acc (us r.Trace.span_t1_ns))
      0. spans
  in
  (match Json.parse (Trace.to_json ()) with
  | Error _ -> ()
  | Ok report ->
      let sample section =
        match Json.member section report with
        | Some (Json.Object fields) ->
            List.iter
              (fun (name, v) ->
                match Json.to_float v with
                | Some x ->
                    emit
                      "{\"ph\":\"C\",\"name\":\"%s\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"args\":{\"value\":%.0f}}"
                      (Json.escape name) t_end x
                | None -> ())
              fields
        | _ -> ()
      in
      sample "counters";
      sample "gauges");
  Buffer.add_string b "]}";
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc
