(* Tests of the Flexile_obs layer: exact reconciliation of the SLO
   tracker with the offline percentile analysis, burn-rate window
   semantics, and the shape of the Prometheus / JSON exports. *)

module Trace = Flexile_util.Trace
module Json = Flexile_util.Json
module Export = Flexile_util.Trace_export
module Slo = Flexile_obs.Slo
module Instance = Flexile_te.Instance
module Metrics = Flexile_te.Metrics
module Offline = Flexile_te.Flexile_offline
module Online = Flexile_te.Flexile_online

let class_report slo ~cls = List.nth (Slo.report slo) cls
let observed_attainment slo ~cls = (class_report slo ~cls).Slo.robserved

let with_tracing enabled f =
  let was = Trace.enabled () in
  Trace.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) f

let promises inst losses =
  Array.init (Array.length inst.Instance.classes) (fun k ->
      Metrics.perc_loss inst losses ~cls:k)

(* ---- Slo reconciles exactly with Metrics.perc_loss ---- *)

let test_slo_reconciles () =
  let inst = Flexile_core.Builder.fig1 () in
  let off = Offline.solve inst in
  let online = Online.run inst ~offline:off in
  let promised = promises inst off.Offline.best.Offline.losses in
  let slo = Slo.create ~promised inst in
  for sid = 0 to Instance.nscenarios inst - 1 do
    let losses =
      Array.init (Instance.nflows inst) (fun fid -> online.(fid).(sid))
    in
    Slo.observe slo ~sid ~losses
  done;
  Alcotest.(check int)
    "every scenario seen"
    (Instance.nscenarios inst)
    (Slo.scenarios_seen slo);
  Array.iteri
    (fun k _ ->
      let direct = Metrics.perc_loss inst online ~cls:k in
      let tracked = observed_attainment slo ~cls:k in
      if Float.abs (direct -. tracked) > 1e-9 then
        Alcotest.failf "class %d: Slo %.12f vs Metrics %.12f" k tracked direct)
    inst.Instance.classes

(* partial coverage must be conservative: unobserved scenarios stay at
   the matrix's initial loss of 1.0 *)
let test_slo_partial_is_conservative () =
  let inst = Flexile_core.Builder.fig1 () in
  let off = Offline.solve inst in
  let online = Online.run inst ~offline:off in
  let promised = promises inst off.Offline.best.Offline.losses in
  let slo = Slo.create ~promised inst in
  Slo.observe slo ~sid:0
    ~losses:(Array.init (Instance.nflows inst) (fun fid -> online.(fid).(0)));
  Array.iteri
    (fun k _ ->
      let direct = Metrics.perc_loss inst online ~cls:k in
      if observed_attainment slo ~cls:k < direct -. 1e-12 then
        Alcotest.failf "class %d: partial coverage under-reported" k)
    inst.Instance.classes

(* ---- burn-rate window ---- *)

let test_burn_rate_window () =
  let inst = Flexile_core.Builder.fig1 () in
  let nk = Array.length inst.Instance.classes in
  let zeros = Array.make (Instance.nflows inst) 0. in
  (* impossible promise: every draw violates *)
  let slo = Slo.create ~window:4 ~promised:(Array.make nk (-1.)) inst in
  for _ = 1 to 6 do
    Slo.observe slo ~sid:0 ~losses:zeros
  done;
  let r = class_report slo ~cls:0 in
  Alcotest.(check int) "window saturates" 4 r.Slo.rwindow_len;
  Alcotest.(check int) "all window draws bad" 4 r.Slo.rwindow_bad;
  Alcotest.(check int) "all draws bad" 6 r.Slo.rbad_draws;
  let beta = inst.Instance.classes.(0).Instance.beta in
  Alcotest.(check (float 1e-9))
    "burn = bad fraction over error budget"
    (1. /. (1. -. beta))
    r.Slo.rburn_rate;
  (* generous promise: no violations, burn 0 *)
  let ok = Slo.create ~window:4 ~promised:(Array.make nk 1.) inst in
  for _ = 1 to 3 do
    Slo.observe ok ~sid:0 ~losses:zeros
  done;
  Alcotest.(check (float 0.)) "no violations, no burn" 0.
    (class_report ok ~cls:0).Slo.rburn_rate;
  (* a draw outside the enumerated set burns every class *)
  Slo.observe_unenumerated ok;
  let r = class_report ok ~cls:0 in
  Alcotest.(check int) "unenumerated draw counted" 4 r.Slo.rwindow_len;
  Alcotest.(check int) "unenumerated draw is bad" 1 r.Slo.rwindow_bad;
  Alcotest.(check int) "tracked separately" 1 (Slo.unenumerated_draws ok)

let test_slo_report_json_parses () =
  let inst = Flexile_core.Builder.fig1 () in
  let nk = Array.length inst.Instance.classes in
  let slo = Slo.create ~promised:(Array.make nk 0.5) inst in
  Slo.observe slo ~sid:0 ~losses:(Array.make (Instance.nflows inst) 0.);
  match Json.parse (Json.encode (Slo.report_json slo)) with
  | Error e -> Alcotest.failf "report_json does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option int))
        "draws field" (Some 1)
        (Option.bind (Json.member "draws" j) Json.to_int);
      let classes =
        Option.bind (Json.member "classes" j) Json.to_list
        |> Option.value ~default:[]
      in
      Alcotest.(check int) "one entry per class" nk (List.length classes)

(* ---- Prometheus exposition ---- *)

let is_prom_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let test_prometheus_shape () =
  with_tracing true @@ fun () ->
  let c = Trace.counter "test.obs_counter" in
  let h = Trace.hist "test.obs_hist" in
  Trace.incr c;
  List.iter (Trace.observe h) [ 0.1; 0.5; 1.0; 2.0; 100.; 0. ];
  let page = Export.prometheus () in
  let lines =
    String.split_on_char '\n' page |> List.filter (fun l -> l <> "")
  in
  if lines = [] then Alcotest.fail "empty exposition";
  List.iter
    (fun line ->
      if not (String.starts_with ~prefix:"# TYPE " line) then begin
        (* sample line: <name>[{le="..."}] <value> *)
        let name =
          match String.index_opt line '{' with
          | Some i -> String.sub line 0 i
          | None -> (
              match String.index_opt line ' ' with
              | Some i -> String.sub line 0 i
              | None -> line)
        in
        if not (is_prom_name name) then
          Alcotest.failf "invalid metric name in %S" line;
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no value in %S" line
        | Some i -> (
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | Some _ -> ()
            | None ->
                if v <> "NaN" && v <> "+Inf" && v <> "-Inf" then
                  Alcotest.failf "unparseable value %S in %S" v line)
      end)
    lines;
  (* histogram family invariants: cumulative buckets, +Inf == count *)
  let fam = "flexile_test_obs_hist" in
  let samples =
    List.filter (String.starts_with ~prefix:(fam ^ "_")) lines
  in
  let value line =
    let i = String.rindex line ' ' in
    float_of_string (String.sub line (i + 1) (String.length line - i - 1))
  in
  let buckets =
    List.filter (String.starts_with ~prefix:(fam ^ "_bucket{")) samples
  in
  if List.length buckets < 2 then Alcotest.fail "expected bucket lines";
  let counts = List.map value buckets in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  if not (nondecreasing counts) then Alcotest.fail "buckets not cumulative";
  let count_line =
    List.find (String.starts_with ~prefix:(fam ^ "_count ")) samples
  in
  let inf_line =
    List.find
      (String.starts_with ~prefix:(fam ^ "_bucket{le=\"+Inf\"}"))
      samples
  in
  Alcotest.(check (float 0.))
    "+Inf bucket equals count" (value count_line) (value inf_line);
  Alcotest.(check (float 0.)) "count is 6" 6. (value count_line);
  (* a traced online allocation and a two-domain map register the
     span/histogram pairs online.scenario{,_seconds} and
     parallel.shard{,_seconds}, which must not collide on the page *)
  let inst = Flexile_core.Builder.fig1 () in
  let best = (Offline.solve inst).Offline.best in
  ignore
    (Online.allocate inst ~sid:0
       ~critical:(fun fid -> best.Offline.z.(fid).(0))
       ~offline_loss:(fun fid -> best.Offline.losses.(fid).(0)));
  ignore
    (Flexile_util.Parallel.map ~jobs:2 ~n:4 ~init:(fun _ -> ()) ~f:(fun () i -> i) ());
  let lines =
    String.split_on_char '\n' (Export.prometheus ())
    |> List.filter (fun l -> l <> "")
  in
  let families = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "#"; "TYPE"; fam; kind ] ->
          if List.mem_assoc fam !families then
            Alcotest.failf "family %s declared twice" fam;
          families := (fam, kind) :: !families
      | _ -> (
          let name =
            match String.index_opt line '{' with
            | Some i -> String.sub line 0 i
            | None -> String.sub line 0 (String.index line ' ')
          in
          match !families with
          | [] -> Alcotest.failf "sample %S before any # TYPE" line
          | (fam, kind) :: _ ->
              let own =
                match kind with
                | "histogram" ->
                    List.map (fun sfx -> fam ^ sfx) [ "_bucket"; "_sum"; "_count" ]
                | "summary" -> List.map (fun sfx -> fam ^ sfx) [ ""; "_sum"; "_count" ]
                | _ -> [ fam ]
              in
              if not (List.mem name own) then
                Alcotest.failf "sample %S outside its family %s" line fam))
    lines

let test_prom_name () =
  Alcotest.(check string)
    "dots map to underscores"
    "# TYPE flexile_simplex_iterations_per_solve gauge\n"
    (Export.labeled_gauge ~name:"simplex.iterations_per_solve" [])

(* ---- deterministic filter ---- *)

let test_deterministic_filter () =
  with_tracing true @@ fun () ->
  ignore (Trace.counter "test.det_counter");
  ignore (Trace.counter "gc.test_det_words");
  ignore (Trace.hist "test.det_loss");
  ignore (Trace.hist "test.det_seconds");
  ignore (Trace.counter "health.test_det_samples");
  ignore (Trace.hist "health.test_det_cond");
  ignore (Trace.gauge "test.det_gauge");
  ignore (Trace.timer "test.det_timer");
  ignore (Trace.span "test.det_span");
  let page = Export.prometheus () in
  let kept family =
    List.exists
      (String.starts_with ~prefix:("# TYPE flexile_" ^ family ^ " "))
      (String.split_on_char '\n' page)
  in
  if not (kept "test_det_counter_total") then
    Alcotest.fail "plain counters are deterministic";
  if kept "gc_test_det_words_total" then
    Alcotest.fail "gc counters are not deterministic";
  if not (kept "test_det_loss") then
    Alcotest.fail "value histograms are deterministic";
  if kept "test_det_seconds" then
    Alcotest.fail "duration histograms are wall-clock";
  if not (kept "health_test_det_samples_total" && kept "health_test_det_cond")
  then
    Alcotest.fail "health metrics are sampled per solver state: deterministic";
  List.iter
    (fun family ->
      if kept family then
        Alcotest.fail "gauges/timers/spans are wall-clock")
    [ "test_det_gauge"; "test_det_timer_seconds"; "test_det_span_seconds" ];
  let _ = Trace.hist "test.filter_seconds" in
  let page = Export.prometheus () in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let found = ref false in
    for i = 0 to h - n do
      if String.sub hay i n = needle then found := true
    done;
    !found
  in
  String.split_on_char '\n' page
  |> List.iter (fun l ->
         if String.starts_with ~prefix:"flexile_gc_" l then
           Alcotest.failf "gc line survived the filter: %S" l);
  if contains "test_filter_seconds" page then
    Alcotest.fail "duration histogram survived the filter";
  if contains "flexile_test_det_loss_sum" page then
    Alcotest.fail "a float sum depends on the domain split: no _sum line"

(* the drop counter survives the deterministic filter: a scrape built
   over truncated span records is exactly what the family is there to
   reveal *)
let test_trace_drops_family () =
  with_tracing true @@ fun () ->
  let lines = String.split_on_char '\n' (Export.prometheus ()) in
  if
    not
      (List.exists
         (String.starts_with ~prefix:"flexile_trace_drops_total{ring=\"spans\"} ")
         lines)
  then Alcotest.fail "missing flexile_trace_drops_total{ring=\"spans\"}";
  if
    not
      (List.exists
         (String.equal "# TYPE flexile_trace_drops_total counter")
         lines)
  then Alcotest.fail "missing TYPE line for flexile_trace_drops_total"

(* ---- JSON snapshot ---- *)

let test_snapshot_json_parses () =
  with_tracing true @@ fun () ->
  let h = Trace.hist "test.obs_snapshot_hist" in
  List.iter (Trace.observe h) [ 1.; 2.; 3. ];
  match Json.parse (Json.encode (Export.snapshot_json ())) with
  | Error e -> Alcotest.failf "snapshot_json does not parse: %s" e
  | Ok j ->
      List.iter
        (fun section ->
          match Json.member section j with
          | Some (Json.Object _) -> ()
          | _ -> Alcotest.failf "missing section %s" section)
        [ "counters"; "histograms" ];
      let entry =
        Option.bind (Json.member "histograms" j) (fun hs ->
            Json.member "test.obs_snapshot_hist" hs)
      in
      (match entry with
      | None -> Alcotest.fail "histogram entry missing"
      | Some e ->
          Alcotest.(check (option int))
            "count" (Some 3)
            (Option.bind (Json.member "count" e) Json.to_int);
          List.iter
            (fun f ->
              if Option.is_none (Json.member f e) then
                Alcotest.failf "missing field %s" f)
            [ "min"; "max"; "p50"; "p90"; "p95"; "p99" ];
          (* a float sum depends on how observations split over domains *)
          if Option.is_some (Json.member "sum" e) then
            Alcotest.fail "the deterministic snapshot carries no sum");
      (* the --trace report additionally carries the sum and raw bucket
         lists *)
      let report_hist k =
        List.fold_left
          (fun j k -> Option.bind j (Json.member k))
          (Some (Export.report_json ()))
          [ "report"; "histograms"; "test.obs_snapshot_hist"; k ]
      in
      (match report_hist "sum" with
      | Some (Json.Number 6.) -> ()
      | _ -> Alcotest.fail "report sum missing");
      match report_hist "buckets" with
      | Some (Json.Array (_ :: _)) -> ()
      | _ -> Alcotest.fail "bucket list missing"

(* ---- every artifact is a projection of one renderer ---- *)

(* After one traced offline solve, a counter reads the same in the
   --trace report, the Chrome trace's C sample and, where the
   deterministic subset keeps it, the page's _total line and the JSONL
   snapshot; a histogram's count agrees between the report, the page's
   _count and +Inf lines and the snapshot. *)
let test_projections_agree () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  ignore (Offline.solve (Flexile_core.Builder.fig1 ()));
  let report = Export.report_json ()
  and page = String.split_on_char '\n' (Export.prometheus ())
  and snapshot = Export.snapshot_json ()
  and chrome = Export.chrome_json () in
  let at j keys =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) keys
  in
  let fields j keys =
    match at j keys with
    | Some (Json.Object l) -> l
    | _ -> Alcotest.failf "no object at %s" (String.concat "." keys)
  in
  let num = function Some (Json.Number x) -> x | _ -> Float.nan in
  let page_value sample =
    match List.find_opt (String.starts_with ~prefix:(sample ^ " ")) page with
    | None -> None
    | Some l ->
        Some (float_of_string (String.sub l (String.length sample + 1)
                                 (String.length l - String.length sample - 1)))
  in
  let prom name = "flexile_" ^ String.map (fun c -> if c = '.' then '_' else c) name in
  let chrome_counters =
    Option.value ~default:[] (Option.bind (at chrome [ "traceEvents" ]) Json.to_list)
    |> List.filter_map (fun e ->
           match (Json.member "ph" e, Json.member "name" e) with
           | Some (Json.String "C"), Some (Json.String n) ->
               Some (n, num (at e [ "args"; "value" ]))
           | _ -> None)
  in
  let counters = fields report [ "report"; "counters" ] in
  let snap_counters = fields snapshot [ "counters" ] in
  List.iter
    (fun (name, v) ->
      let v = num (Some v) in
      Alcotest.(check (option (float 0.)))
        (name ^ ": chrome") (Some v) (List.assoc_opt name chrome_counters);
      match List.assoc_opt name snap_counters with
      | None ->
          if page_value (prom name ^ "_total") <> None then
            Alcotest.failf "%s on the page but not in the snapshot" name
      | Some sv ->
          Alcotest.(check (float 0.)) (name ^ ": snapshot") v (num (Some sv));
          Alcotest.(check (option (float 0.)))
            (name ^ ": page") (Some v) (page_value (prom name ^ "_total")))
    counters;
  List.iter
    (fun name ->
      if not (List.mem_assoc name counters) then
        Alcotest.failf "snapshot counter %s missing from the report" name)
    (List.map fst snap_counters);
  if num (List.assoc_opt "flexile.subproblems_solved" snap_counters) <= 0. then
    Alcotest.fail "the solve's counters are missing from the snapshot";
  let report_hists = fields report [ "report"; "histograms" ] in
  let snap_hists = fields snapshot [ "histograms" ] in
  if snap_hists = [] then Alcotest.fail "no deterministic histogram";
  List.iter
    (fun (name, h) ->
      let count = num (Json.member "count" h) in
      Alcotest.(check (float 0.))
        (name ^ ": report count") count
        (num (at (Json.Object report_hists) [ name; "count" ]));
      Alcotest.(check (option (float 0.)))
        (name ^ ": page _count") (Some count) (page_value (prom name ^ "_count"));
      Alcotest.(check (option (float 0.)))
        (name ^ ": page +Inf") (Some count)
        (page_value (prom name ^ "_bucket{le=\"+Inf\"}")))
    snap_hists

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flexile_obs"
    [
      ( "slo",
        [
          quick "reconciles with Metrics.perc_loss" test_slo_reconciles;
          quick "partial coverage conservative" test_slo_partial_is_conservative;
          quick "burn-rate window" test_burn_rate_window;
          quick "report_json parses" test_slo_report_json_parses;
        ] );
      ( "prometheus",
        [
          quick "exposition shape" test_prometheus_shape;
          quick "name sanitization" test_prom_name;
          quick "deterministic filter" test_deterministic_filter;
          quick "trace drops family always exported" test_trace_drops_family;
        ] );
      ( "json",
        [
          quick "snapshot parses with histograms" test_snapshot_json_parses;
          quick "projections agree" test_projections_agree;
        ] );
    ]
