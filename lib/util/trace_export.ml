(* Projections of Trace's quiescent-point reads into JSON documents:
   the structured report (full metric registry + span tree) that
   `flexile --trace` and `bench --json` write, and the Chrome
   trace-event document (`--trace-chrome` / `bench --chrome`) loadable
   in Perfetto or chrome://tracing.  Callers encode with Json.encode. *)

(* ------------------------------------------------------------------ *)
(* Structured report                                                   *)
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
let solver_health_json () =
  let registry = Trace.registry () in
  let section kind prefixes render =
    Json.Object
      (List.filter_map
         (fun (name, k) ->
           if
             k = kind
             && List.exists
                  (fun prefix -> String.starts_with ~prefix name)
                  prefixes
           then Some (name, render name)
           else None)
         registry)
  in
  Json.Object
    [
      ("schema", Json.String "flexile-solver-health");
      ("version", Json.int 1);
      ( "counters",
        section Trace.Counter [ "health."; "simplex." ] (fun name ->
            Json.int (Trace.value_by_name name)) );
      ( "histograms",
        section Trace.Hist [ "health." ] (fun name ->
            Trace.hist_summary_json (Trace.hist_snapshot_by_name name)) );
    ]

let report_json ?(derived = []) () =
  Json.Object
    [
      ("derived", Json.Object (List.map (fun (k, v) -> (k, Json.Number v)) derived));
      (* [report] is the full registry — every module's counters,
         gauges, timers and span totals, not just the offline solver's *)
      ("report", Trace.to_json ());
      ("solver_health", solver_health_json ());
      ("span_tree", span_tree_json ());
      (* ring/record saturation at top level: a nonzero drop count
         means the span_tree above (and the event stream) is truncated
         — silent truncation would read as "nothing else happened" *)
      ( "drops",
        Json.Object
          [
            ("events_logged", Json.int (Trace.events_logged ()));
            ("events_dropped", Json.int (Trace.events_dropped ()));
            ("span_records_logged", Json.int (Trace.spans_logged ()));
            ("span_records_dropped", Json.int (Trace.spans_dropped ()));
            ("spans_open", Json.int (Trace.spans_open ()));
          ] );
    ]

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
  (* every event is ph, name, [head], pid, tid, [tail], args *)
  let event ph name ?(head = []) ~tid ?(tail = []) args =
    Json.Object
      ((("ph", Json.String ph) :: ("name", Json.String name) :: head)
      @ (("pid", Json.int 0) :: ("tid", Json.int tid) :: tail)
      @ [ ("args", Json.Object args) ])
  in
  let cat c = ("cat", Json.String c) in
  let ts t = ("ts", Json.Number t) in
  let doms =
    List.sort_uniq compare
      (List.map (fun (r : Trace.span_record) -> r.Trace.span_dom) spans
      @ List.map (fun (e : Trace.event_record) -> e.Trace.dom) events)
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
        event "X" r.Trace.span_name ~head:[ cat "span" ] ~tid:r.Trace.span_dom
          ~tail:[ ts (us r.Trace.span_t0_ns); ("dur", Json.Number dur) ]
          [
            ("arg", Json.int r.Trace.span_arg);
            ("depth", Json.int r.Trace.span_depth);
            ("minor_words", Json.Number r.Trace.span_minor_words);
            ("major_words", Json.Number r.Trace.span_major_words);
          ])
      spans
  in
  let probe_events =
    List.map
      (fun (e : Trace.event_record) ->
        event "i" e.Trace.name
          ~head:[ cat "probe"; ("s", Json.String "t") ]
          ~tid:e.Trace.dom
          ~tail:[ ts (us e.Trace.t_ns) ]
          [ ("arg", Json.int e.Trace.arg) ])
      events
  in
  (* final counter samples: Trace aggregates totals, not series, so a
     single C event at the trace's end still surfaces every counter and
     gauge in Perfetto's counter tracks *)
  let t_end =
    List.fold_left
      (fun acc (r : Trace.span_record) -> max acc (us r.Trace.span_t1_ns))
      0. spans
  in
  let registry = Trace.registry () in
  let counter_events =
    List.concat_map
      (fun kind ->
        List.filter_map
          (fun (name, k) ->
            if k = kind then
              Some
                (event "C" name ~tid:0 ~tail:[ ts t_end ]
                   [ ("value", Json.int (Trace.value_by_name name)) ])
            else None)
          registry)
      [ Trace.Counter; Trace.Gauge ]
  in
  Json.Object
    [
      ("displayTimeUnit", Json.String "ms");
      ( "traceEvents",
        Json.Array (metadata @ span_events @ probe_events @ counter_events) );
    ]
