(* Tests of the hierarchical span profiler: span-nesting invariants
   (balanced begin/end, child intervals contained in the parent,
   deterministic cross-domain merge), Chrome trace-event JSON
   well-formedness checked by parsing it back, the benchmark's sample
   median and the Json reader. *)

module Trace = Flexile_util.Trace
module Trace_export = Flexile_util.Trace_export
module Parallel = Flexile_util.Parallel
module Json = Flexile_util.Json
module Bench_gate = Flexile_util.Bench_gate

let with_tracing enabled f =
  let was = Trace.enabled () in
  Trace.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) f

let my_spans prefix =
  Trace.span_records ()
  |> List.filter (fun r ->
         String.length r.Trace.span_name >= String.length prefix
         && String.sub r.Trace.span_name 0 (String.length prefix) = prefix)

(* ---- nesting invariants ---- *)

let test_balanced_nesting () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  let sp_a = Trace.span "prof.a" and sp_b = Trace.span "prof.b" in
  let r =
    Trace.in_span ~arg:7 sp_a (fun () ->
        Trace.in_span sp_b (fun () -> ());
        Trace.in_span ~arg:2 sp_b (fun () -> ());
        42)
  in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "stack balanced" 0 (Trace.spans_open ());
  let recs = my_spans "prof." in
  Alcotest.(check int) "three records" 3 (List.length recs);
  let a = List.find (fun r -> r.Trace.span_name = "prof.a") recs in
  let bs = List.filter (fun r -> r.Trace.span_name = "prof.b") recs in
  Alcotest.(check int) "a is a root" (-1) a.Trace.span_parent;
  Alcotest.(check int) "a carries its tag" 7 a.Trace.span_arg;
  List.iter
    (fun b ->
      Alcotest.(check int) "b's parent is a" a.Trace.span_seq
        b.Trace.span_parent;
      Alcotest.(check int) "b's depth" (a.Trace.span_depth + 1)
        b.Trace.span_depth;
      if not (b.Trace.span_t0_ns >= a.Trace.span_t0_ns) then
        Alcotest.fail "child begins before parent";
      if not (b.Trace.span_t1_ns <= a.Trace.span_t1_ns) then
        Alcotest.fail "child ends after parent";
      if Int64.compare b.Trace.span_t1_ns b.Trace.span_t0_ns < 0 then
        Alcotest.fail "negative span duration")
    bs;
  (* siblings ordered by begin sequence, non-overlapping *)
  match bs with
  | [ b1; b2 ] ->
      if b1.Trace.span_seq >= b2.Trace.span_seq then
        Alcotest.fail "sibling seq not increasing";
      if Int64.compare b2.Trace.span_t0_ns b1.Trace.span_t1_ns < 0 then
        Alcotest.fail "siblings overlap"
  | _ -> Alcotest.fail "expected two b spans"

let test_exception_safety () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  let sp = Trace.span "prof.raises" in
  (try Trace.in_span sp (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "stack balanced after raise" 0 (Trace.spans_open ());
  Alcotest.(check int) "span still recorded" 1
    (List.length (my_spans "prof.raises"))

let test_gc_delta_recorded () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  let sp = Trace.span "prof.alloc" in
  let sink = ref [] in
  Trace.in_span sp (fun () ->
      for i = 0 to 999 do
        sink := (i, float_of_int i) :: !sink
      done);
  ignore (Sys.opaque_identity !sink);
  match my_spans "prof.alloc" with
  | [ r ] ->
      (* 1000 boxed pairs: well over 4000 words in the minor heap *)
      if r.Trace.span_minor_words < 1000. then
        Alcotest.failf "minor allocation delta too small: %f"
          r.Trace.span_minor_words
  | l -> Alcotest.failf "expected one record, got %d" (List.length l)

(* ---- cross-domain merge ---- *)

let run_parallel_spans () =
  let sp = Trace.span "prof.par" in
  let _ =
    Parallel.map ~jobs:2 ~n:10
      ~init:(fun _ -> ())
      ~f:(fun () i ->
        Trace.in_span ~arg:i sp (fun () -> ());
        i)
      ()
  in
  my_spans "prof."
  |> List.map (fun r ->
         (r.Trace.span_name, r.Trace.span_arg, r.Trace.span_dom))

let test_merge_deterministic () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  let first = run_parallel_spans () in
  Trace.reset ();
  let second = run_parallel_spans () in
  if first <> second then Alcotest.fail "merge order differs between runs";
  (* ordered by (dom, seq): domains non-decreasing, 10 records, and the
     static-cyclic sharding pins even args to the caller's shard *)
  Alcotest.(check int) "ten records" 10 (List.length first);
  let doms = List.map (fun (_, _, d) -> d) first in
  if List.sort compare doms <> doms then
    Alcotest.fail "records not sorted by domain";
  let args_by_dom = Hashtbl.create 4 in
  List.iter
    (fun (_, a, d) ->
      Hashtbl.replace args_by_dom d
        (a :: (try Hashtbl.find args_by_dom d with Not_found -> [])))
    first;
  Hashtbl.iter
    (fun _ args ->
      let args = List.rev args in
      if List.sort compare args <> args then
        Alcotest.fail "per-domain records not in begin order";
      match List.sort_uniq compare (List.map (fun a -> a mod 2) args) with
      | [ _ ] -> ()  (* one parity per shard: static cyclic assignment *)
      | _ -> Alcotest.fail "shard mixed parities")
    args_by_dom

let test_span_tree_shape () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  let sp_root = Trace.span "prof.root" and sp_kid = Trace.span "prof.kid" in
  Trace.in_span sp_root (fun () ->
      Trace.in_span ~arg:1 sp_kid (fun () ->
          Trace.in_span ~arg:2 sp_kid (fun () -> ()));
      Trace.in_span ~arg:3 sp_kid (fun () -> ()));
  let trees =
    Trace.span_trees ()
    |> List.filter (fun t -> t.Trace.node_name = "prof.root")
  in
  match trees with
  | [ root ] -> (
      Alcotest.(check int) "root has two children" 2
        (List.length root.Trace.node_children);
      match root.Trace.node_children with
      | [ k1; k3 ] ->
          Alcotest.(check int) "children in begin order" 1 k1.Trace.node_arg;
          Alcotest.(check int) "second child tag" 3 k3.Trace.node_arg;
          Alcotest.(check int) "grandchild" 1
            (List.length k1.Trace.node_children);
          Alcotest.(check int) "grandchild tag" 2
            (List.hd k1.Trace.node_children).Trace.node_arg
      | _ -> Alcotest.fail "wrong child list")
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

(* ---- Chrome trace export: parse it back and validate ---- *)

let test_chrome_well_formed () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  let sp = Trace.span "prof.chrome" in
  Trace.in_span ~arg:5 sp (fun () -> Trace.in_span sp (fun () -> ()));
  Trace.incr (Trace.counter "prof.chrome_counter");
  let doc = Json.encode (Trace_export.chrome_json ()) in
  match Json.parse doc with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok j -> (
      match Option.bind (Json.member "traceEvents" j) Json.to_list with
      | None -> Alcotest.fail "no traceEvents array"
      | Some events ->
          if events = [] then Alcotest.fail "empty traceEvents";
          let phases = ref [] in
          List.iter
            (fun e ->
              let str k = Option.bind (Json.member k e) Json.to_string in
              let num k =
                match Json.member k e with
                | Some (Json.Number x) -> Some x
                | _ -> None
              in
              let ph =
                match str "ph" with
                | Some p -> p
                | None -> Alcotest.fail "event without ph"
              in
              phases := ph :: !phases;
              if str "name" = None then Alcotest.fail "event without name";
              if num "pid" = None then Alcotest.fail "event without pid";
              match ph with
              | "X" ->
                  let ts = Option.get (num "ts") and d = Option.get (num "dur") in
                  if ts < 0. || d < 0. then Alcotest.fail "negative ts/dur";
                  if num "tid" = None then Alcotest.fail "X without tid"
              | "C" ->
                  if Json.member "args" e = None then
                    Alcotest.fail "C without args"
              | "M" -> ()
              | p -> Alcotest.failf "unexpected phase %s" p)
            events;
          List.iter
            (fun p ->
              if not (List.mem p !phases) then
                Alcotest.failf "no %s events emitted" p)
            [ "X"; "M"; "C" ])

let test_report_has_full_registry () =
  with_tracing true @@ fun () ->
  Trace.reset ();
  (* touch metrics from several modules, then check they all appear *)
  let inst = Flexile_core.Builder.fig1 () in
  ignore (Flexile_core.Schemes.run ~jobs:2 Flexile_core.Schemes.Flexile inst);
  let doc = Json.encode (Trace_export.report_json ()) in
  match Json.parse doc with
  | Error e -> Alcotest.failf "report does not parse: %s" e
  | Ok j ->
      let report =
        match Json.member "report" j with
        | Some r -> r
        | None -> Alcotest.fail "no report section"
      in
      let counters =
        match Json.member "counters" report with
        | Some (Json.Object c) -> c
        | _ -> Alcotest.fail "no counters object"
      in
      List.iter
        (fun name ->
          match List.assoc_opt name counters with
          | Some (Json.Number v) when v > 0. -> ()
          | Some _ -> Alcotest.failf "counter %s is zero in the dump" name
          | None -> Alcotest.failf "counter %s missing from the dump" name)
        [
          "simplex.cold_solves"; "engine.sweeps"; "parallel.maps";
          "flexile.subproblems_solved"; "gc.minor_words";
        ];
      (match Json.member "span_tree" j with
      | Some (Json.Array (_ :: _)) -> ()
      | _ -> Alcotest.fail "span_tree missing or empty");
      if Trace.spans_open () <> 0 then
        Alcotest.fail "solver left spans open at the quiescent point"

(* ---- the sample median flexbench reports ---- *)

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 2. (Bench_gate.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "even" 1.5 (Bench_gate.median [ 2.; 1. ]);
  Alcotest.(check (float 1e-9)) "empty" 0. (Bench_gate.median [])

(* ---- the Json reader itself ---- *)

let test_json_parser () =
  let ok s = match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  (match ok {|{"a": [1, 2.5, -3e2], "b": "x\n\"yA", "c": true, "d": null}|} with
  | Json.Object fields ->
      (match List.assoc "a" fields with
      | Json.Array [ Json.Number 1.; Json.Number 2.5; Json.Number -300. ] -> ()
      | _ -> Alcotest.fail "array mismatch");
      (match List.assoc "b" fields with
      | Json.String "x\n\"yA" -> ()
      | Json.String s -> Alcotest.failf "string mismatch: %S" s
      | _ -> Alcotest.fail "not a string");
      if List.assoc "c" fields <> Json.Bool true then Alcotest.fail "bool";
      if List.assoc "d" fields <> Json.Null then Alcotest.fail "null"
  | _ -> Alcotest.fail "not an object");
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "" ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flexile_profiler"
    [
      ( "nesting",
        [
          quick "balanced begin/end and containment" test_balanced_nesting;
          quick "exception safety" test_exception_safety;
          quick "GC allocation deltas" test_gc_delta_recorded;
        ] );
      ( "merge",
        [
          quick "cross-domain determinism" test_merge_deterministic;
          quick "span tree shape" test_span_tree_shape;
        ] );
      ( "export",
        [
          quick "chrome trace well-formed" test_chrome_well_formed;
          quick "report carries the full registry" test_report_has_full_registry;
        ] );
      ("median", [ quick "median" test_median ]);
      ("json", [ quick "reader" test_json_parser ]);
    ]
