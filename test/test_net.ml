(* Tests for the network substrate: graph invariants, shortest paths,
   Yen's k-shortest, tunnel selection, the topology catalog, and the
   rich-connectivity transform. *)

open Flexile_net

let quick name f = Alcotest.test_case name `Quick f

(* a 6-node test graph with a known structure:
     0-1, 1-2, 2-3, 3-0 (square), 0-2 (diagonal), 3-4, 4-5, 5-3 (ear) *)
let square_ear () =
  Graph.create ~name:"square-ear" ~n:6
    [|
      (0, 1, 1.); (1, 2, 1.); (2, 3, 1.); (3, 0, 1.); (0, 2, 1.);
      (3, 4, 1.); (4, 5, 1.); (5, 3, 1.);
    |]

let degree g v = List.length g.Graph.adj.(v)

let is_connected_graph g =
  List.for_all (Graph.connected g 0) (List.init g.Graph.n Fun.id)

let test_graph_basics () =
  let g = square_ear () in
  Alcotest.(check int) "edges" 8 (Graph.nedges g);
  Alcotest.(check int) "degree 0" 3 (degree g 0);
  Alcotest.(check int) "degree 4" 2 (degree g 4);
  Alcotest.(check bool) "connected" true (is_connected_graph g);
  Alcotest.(check int) "pairs" 15 (Array.length (Graph.pairs g))

let test_graph_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~name:"x" ~n:2 [| (0, 0, 1.) |]));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Graph.create: capacity <= 0") (fun () ->
      ignore (Graph.create ~name:"x" ~n:2 [| (0, 1, 0.) |]))

let test_connectivity_mask () =
  let g = square_ear () in
  (* killing edges 2-3 and 3-0 and 0-2... 0 and 3 connected only via
     square; remove 2-3 (id 2) and 3-0 (id 3): 3 unreachable from 0
     through the square, but 3 connects via the ear only to 4,5 *)
  let alive id = id <> 2 && id <> 3 in
  Alcotest.(check bool) "0-3 disconnected" false (Graph.connected g ~alive 0 3);
  Alcotest.(check bool) "0-2 still connected" true (Graph.connected g ~alive 0 2);
  Alcotest.(check bool) "3-5 still connected" true (Graph.connected g ~alive 3 5)

let test_dijkstra () =
  let g = square_ear () in
  match Paths.k_shortest g ~k:2 ~src:0 ~dst:4 () with
  | [ p; q ] ->
      Alcotest.(check int) "hops 0-4" 2 (Array.length p);
      let ns = Paths.nodes g ~src:0 p in
      Alcotest.(check int) "ends at 4" 4 ns.(Array.length ns - 1);
      (* the second path's spur search masks edge 3-0, so 0->4 must go
         the long way (3 hops) *)
      Alcotest.(check int) "masked hops" 3 (Array.length q)
  | ps -> Alcotest.failf "expected 2 paths 0-4, got %d" (List.length ps)

let test_yen () =
  let g = square_ear () in
  let ps = Paths.k_shortest g ~k:4 ~src:0 ~dst:2 () in
  (* 0-2 direct; 0-1-2; 0-3-2; 0-3-5-4... no (4 is a dead end for 2) *)
  Alcotest.(check int) "found 3 loopless paths" 3 (List.length ps);
  let lengths = List.map Array.length ps in
  Alcotest.(check (list int)) "nondecreasing lengths" [ 1; 2; 2 ] lengths;
  (* all distinct *)
  let distinct =
    List.sort_uniq compare (List.map (fun p -> Array.to_list p) ps)
  in
  Alcotest.(check int) "distinct" 3 (List.length distinct)

let test_yen_disjointness_preference () =
  let g = square_ear () in
  let ts = Tunnels.select_single_class g ~pair:(0, 2) ~count:3 in
  Alcotest.(check int) "3 tunnels" 3 (List.length ts);
  (* first two tunnels should be edge-disjoint here *)
  match ts with
  | a :: b :: _ ->
      Alcotest.(check int) "disjoint" 0
        (Paths.overlap a.Tunnels.path b.Tunnels.path)
  | _ -> Alcotest.fail "missing tunnels"

let test_high_priority_spof () =
  let g = square_ear () in
  let ts = Tunnels.select_high_priority g ~pair:(0, 2) ~count:3 in
  (* no single edge may appear in all three tunnels *)
  match ts with
  | [] -> Alcotest.fail "no tunnels"
  | first :: rest ->
      let spof =
        Array.to_list first.Tunnels.path
        |> List.filter (fun e ->
               List.for_all
                 (fun t -> Array.exists (fun e' -> e' = e) t.Tunnels.path)
                 rest)
      in
      Alcotest.(check (list int)) "no SPOF" [] spof

let test_low_priority_superset () =
  let g = square_ear () in
  let high = Tunnels.select_high_priority g ~pair:(0, 2) ~count:2 in
  let low = Tunnels.select_low_priority g ~pair:(0, 2) ~high ~extra:2 in
  (* only 3 loopless 0-2 paths exist in this graph, so the extras are
     capped by availability *)
  Alcotest.(check int) "low count" 3 (List.length low);
  (* the high-priority tunnels come first, unchanged *)
  List.iteri
    (fun i t ->
      if i < List.length high then
        let h = List.nth high i in
        if t.Tunnels.path <> h.Tunnels.path then
          Alcotest.fail "high tunnels not preserved")
    low;
  (* extras are distinct from the high set *)
  let paths = List.map (fun t -> Array.to_list t.Tunnels.path) low in
  Alcotest.(check int) "all distinct" (List.length low)
    (List.length (List.sort_uniq compare paths))

let test_catalog_sizes () =
  List.iter
    (fun (name, n, m) ->
      let g = Catalog.by_name name in
      Alcotest.(check int) (name ^ " nodes") n g.Graph.n;
      Alcotest.(check int) (name ^ " edges") m (Graph.nedges g);
      Alcotest.(check bool) (name ^ " connected") true
        (is_connected_graph g);
      (* the paper prunes 1-degree nodes: min degree must be >= 2 *)
      for v = 0 to g.Graph.n - 1 do
        if degree g v < 2 then
          Alcotest.failf "%s: node %d has degree < 2" name v
      done)
    Catalog.table2

let test_catalog_deterministic () =
  let a = Catalog.by_name "IBM" and b = Catalog.by_name "IBM" in
  let edges g =
    Array.map (fun (e : Graph.edge) -> (e.Graph.u, e.Graph.v, e.Graph.capacity)) g.Graph.edges
  in
  Alcotest.(check bool) "same edges" true (edges a = edges b)

let test_split_links () =
  let g = Catalog.triangle () in
  let r = Graph.split_links g in
  Alcotest.(check int) "doubled edges" 6 (Graph.nedges r);
  Array.iteri
    (fun i (e : Graph.edge) ->
      Alcotest.(check int) "group" (i / 2) e.Graph.group;
      Alcotest.(check (float 1e-9)) "half capacity" 0.5 e.Graph.capacity)
    r.Graph.edges

(* ---------------- GML I/O ---------------- *)

let sample_gml =
  {|
# a topology-zoo style file
graph [
  directed 0
  node [ id 10 label "A" ]
  node [ id 11 label "B" ]
  node [ id 12 label "C" ]
  node [ id 13 label "stub" ]
  edge [ source 10 target 11 LinkSpeed 2.5 ]
  edge [ source 11 target 12 ]
  edge [ source 12 target 10 ]
  edge [ source 10 target 11 ]
  edge [ source 12 target 13 ]
]
|}

let parse_ok ?name ?prune text =
  match Gml.parse ?name ?prune text with
  | Ok g -> g
  | Error e -> Alcotest.failf "parse: %s" e

let test_gml_parse () =
  let g = parse_ok ~name:"sample" sample_gml in
  (* the stub node (degree 1) is pruned; the duplicate edge dropped *)
  Alcotest.(check int) "nodes after pruning" 3 g.Graph.n;
  Alcotest.(check int) "edges" 3 (Graph.nedges g);
  Alcotest.(check bool) "connected" true (is_connected_graph g);
  (* capacity attribute honored *)
  let caps =
    Array.to_list (Array.map (fun (e : Graph.edge) -> e.Graph.capacity) g.Graph.edges)
    |> List.sort compare
  in
  Alcotest.(check (list (float 1e-9))) "capacities" [ 1.; 1.; 2.5 ] caps

let test_gml_no_prune () =
  let g = parse_ok ~prune:false sample_gml in
  Alcotest.(check int) "nodes kept" 4 g.Graph.n;
  Alcotest.(check int) "edges kept" 4 (Graph.nedges g)

(* [g] as a topology-zoo style GML document *)
let to_gml g =
  let node v = Printf.sprintf "  node [ id %d ]\n" v in
  let edge (e : Graph.edge) =
    Printf.sprintf "  edge [ source %d target %d capacity %h ]\n" e.Graph.u
      e.Graph.v e.Graph.capacity
  in
  String.concat ""
    (("graph [\n" :: List.init g.Graph.n node)
    @ List.map edge (Array.to_list g.Graph.edges)
    @ [ "]\n" ])

let test_gml_roundtrip () =
  let g = Catalog.by_name "Sprint" in
  let g2 = parse_ok ~name:"Sprint" (to_gml g) in
  Alcotest.(check int) "nodes" g.Graph.n g2.Graph.n;
  Alcotest.(check int) "edges" (Graph.nedges g) (Graph.nedges g2);
  let sig_of g =
    Array.to_list g.Graph.edges
    |> List.map (fun (e : Graph.edge) ->
           (min e.Graph.u e.Graph.v, max e.Graph.u e.Graph.v, e.Graph.capacity))
    |> List.sort compare
  in
  Alcotest.(check bool) "same links" true (sig_of g = sig_of g2)

let test_gml_errors () =
  List.iter
    (fun (what, text) ->
      match Gml.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ("node without id", {|graph [ node [ label "x" ] ]|});
      ("edge with undeclared endpoints", "graph [ edge [ source 1 target 2 ] ]");
      ("unterminated record", "graph [ node [ id 0 ]");
      ("unbalanced ]", "graph [ ] ]");
      ("unterminated string", {|graph [ node [ id 0 label "x ] ]|});
      ("dangling key", "graph [ ] directed");
      ("no graph record", "node [ id 0 ]");
    ];
  (* an infinite capacity is an error, not an infinitely wide link *)
  List.iter
    (fun cap ->
      let text =
        Printf.sprintf
          "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 \
           capacity %s ] ]"
          cap
      in
      match Gml.parse ~prune:false text with
      | Error e ->
          let has sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length e && (String.sub e i n = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) (cap ^ ": says not finite") true
            (has "not finite")
      | Ok _ -> Alcotest.failf "capacity %s accepted" cap)
    [ "inf"; "1e400"; "nan"; {|"inf"|} ];
  (* a capacity that is not positive is an error, not a unit link *)
  List.iter
    (fun cap ->
      let text =
        Printf.sprintf
          "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 \
           capacity %s ] ]"
          cap
      in
      match Gml.parse ~prune:false text with
      | Error e ->
          let sub = "is not positive" in
          let n = String.length sub in
          let rec has i =
            i + n <= String.length e && (String.sub e i n = sub || has (i + 1))
          in
          Alcotest.(check bool) (cap ^ ": says not positive") true (has 0)
      | Ok _ -> Alcotest.failf "capacity %s accepted" cap)
    [ "0"; "-5" ];
  (* LinkSpeedRaw is bits/s: a 10 Gb/s link is a hundred times a
     100 Mb/s one, whatever LinkSpeed and LinkSpeedUnits say *)
  let zoo =
    {|graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ]
       edge [ source 0 target 1 LinkSpeed "10" LinkSpeedUnits "G"
              LinkSpeedRaw 10000000000 ]
       edge [ source 1 target 2 LinkSpeed "100" LinkSpeedUnits "M"
              LinkSpeedRaw 100000000 ] ]|}
  in
  let g = parse_ok ~prune:false zoo in
  Alcotest.(check (list (float 0.))) "capacities in bits/s" [ 1e10; 1e8 ]
    (Array.to_list (Array.map (fun (e : Graph.edge) -> e.Graph.capacity) g.Graph.edges));
  (* an edge without LinkSpeedRaw beside one with it would get a
     capacity in another unit: an error, not a near-zero link *)
  let mixed =
    {|graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ]
       edge [ source 0 target 1 LinkSpeed "10" LinkSpeedRaw 10000000000 ]
       edge [ source 1 target 2 LinkSpeed "10" ] ]|}
  in
  (match Gml.parse ~prune:false mixed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an edge without LinkSpeedRaw accepted beside one with it");
  let missing = Filename.temp_file "flexile-gml" ".gml" in
  Sys.remove missing;
  match Gml.load missing with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a missing file loaded"

(* Seeded byte mutations of the sample: Ok or Error, never an
   exception. *)
let prop_mutated_gml_parses =
  QCheck.Test.make ~name:"mutated GML parses as Ok or Error" ~count:500
    (QCheck.make (Fuzz.mutation_gen sample_gml))
    (fun text ->
      match Gml.parse text with Ok _ | Error _ -> true)

let qcheck_generator_invariants =
  let gen = QCheck.Gen.(pair (int_range 6 40) (int_range 0 30)) in
  QCheck.Test.make ~name:"generated topologies are valid" ~count:60
    (QCheck.make gen) (fun (n, extra) ->
      let m = min (n + extra) (n * (n - 1) / 2) in
      let seed = Flexile_util.Prng.of_string (Printf.sprintf "gen-%d-%d" n m) in
      let g = Gen.random_graph ~name:"t" ~n ~m ~seed in
      Graph.nedges g = m
      && is_connected_graph g
      && Array.for_all (fun v -> v >= 2) (Array.init n (degree g)))

let () =
  Alcotest.run "flexile_net"
    [
      ( "graph",
        [
          quick "basics" test_graph_basics;
          quick "validation" test_graph_validation;
          quick "masked connectivity" test_connectivity_mask;
          quick "split links" test_split_links;
        ] );
      ( "paths",
        [
          quick "dijkstra" test_dijkstra;
          quick "yen k-shortest" test_yen;
          quick "tunnel disjointness" test_yen_disjointness_preference;
          quick "high-priority SPOF avoidance" test_high_priority_spof;
          quick "low-priority superset" test_low_priority_superset;
        ] );
      ( "catalog",
        [
          quick "table 2 sizes" test_catalog_sizes;
          quick "deterministic" test_catalog_deterministic;
        ] );
      ( "gml",
        [
          quick "parse + prune" test_gml_parse;
          quick "parse without pruning" test_gml_no_prune;
          quick "roundtrip" test_gml_roundtrip;
          quick "malformed input" test_gml_errors;
          Fuzz.to_alcotest prop_mutated_gml_parses;
        ] );
      ( "properties",
        [ Fuzz.to_alcotest qcheck_generator_invariants ] );
    ]
