(* Tests for the failure model's generator families: per-family
   property tests (mass accounting, capacity bounds, SRLG atomicity,
   maintenance determinism), statistical tests against analytic
   probabilities (3-sigma binomial bounds on a large seeded sample),
   differential tests (mixed-regime sweeps at --jobs 1 vs 4, and the
   scenario-set pin of every builder mix), and the regression pinning
   the multi-state mass-accounting fix. *)

module FM = Flexile_failure.Failure_model
module Prng = Flexile_util.Prng
module Fc = Flexile_util.Float_cmp

let close a b = Float.abs (a -. b) <= 1e-12
module Instance = Flexile_te.Instance

let quick name f = Alcotest.test_case name `Quick f

let ibm () = Flexile_net.Catalog.by_name "IBM"

(* exhaustive enumeration: no cutoff, cap far above any test model *)
let exhaustive gen = FM.enumerate ~cutoff:0. ~max_scenarios:100_000 gen

(* ---------- property tests ---------- *)

(* Probability mass of the full enumeration sums to 1 for every
   generator family and for their composition. *)
let test_mass_sums_to_one () =
  let graph = Flexile_net.Catalog.triangle () in
  let seed name = Prng.of_string ("sg-mass-" ^ name) in
  let gens =
    [
      ("independent", FM.independent_links ~graph ~seed:(seed "ind") ());
      ( "srlg",
        FM.srlg ~nedges:3
          ~groups:[| [| 0; 1 |]; [| 2 |] |]
          ~seed:(seed "srlg") () );
      ("partial", FM.partial ~graph ~seed:(seed "partial") ());
      ( "maintenance",
        FM.maintenance ~nedges:3 ~horizon:100.
          [
            { FM.wname = "a"; wedges = [| 0 |]; wstart = 0.; wduration = 5. };
            { FM.wname = "b"; wedges = [| 1; 2 |]; wstart = 10.; wduration = 3. };
          ] );
      ("diurnal", FM.diurnal ~nedges:3);
    ]
  in
  List.iter
    (fun (name, gen) ->
      let mass = FM.coverage (exhaustive gen) in
      if not (Fc.eq mass 1.) then
        Alcotest.failf "%s: total mass %.12f, expected 1" name mass)
    gens;
  (* composition of all capacity families *)
  let composed =
    FM.compose (List.map snd (List.filteri (fun i _ -> i < 4) gens))
  in
  let mass = FM.coverage (exhaustive composed) in
  if not (Fc.eq mass 1.) then
    Alcotest.failf "composed: total mass %.12f, expected 1" mass

(* A truncated enumeration plus its unenumerated tail is a probability
   distribution: coverage never exceeds 1 and decreases monotonically
   with a tighter cap. *)
let test_truncated_coverage () =
  let graph = ibm () in
  let gen =
    FM.compose
      [
        FM.partial ~graph ~seed:(Prng.of_string "sg-cov") ();
        FM.srlg
          ~nedges:(Flexile_net.Graph.nedges graph)
          ~groups:(Flexile_net.Catalog.srlgs graph)
          ~seed:(Prng.of_string "sg-cov-srlg") ();
      ]
  in
  let c40 =
    FM.coverage (FM.enumerate ~max_scenarios:40 gen)
  in
  let c150 =
    FM.coverage (FM.enumerate ~max_scenarios:150 gen)
  in
  if c40 > 1. +. 1e-9 || c150 > 1. +. 1e-9 then
    Alcotest.fail "coverage exceeds 1";
  if c40 > c150 +. 1e-12 then
    Alcotest.fail "coverage not monotone in the enumeration cap"

(* Every enumerated cap_frac is in [0, 1], and for the partial family
   it is a member of the configured level set (or nominal 1). *)
let test_partial_fraction_bounds () =
  let graph = ibm () in
  let gen = FM.partial ~graph ~seed:(Prng.of_string "sg-frac") () in
  let scenarios = FM.enumerate ~max_scenarios:200 gen in
  (* nominal, then the partial family's levels: a hard cut, 30%, 70% *)
  let allowed = [ 1.; 0.; 0.3; 0.7 ] in
  Array.iter
    (fun (s : FM.scenario) ->
      Array.iter
        (fun f ->
          if f < 0. || f > 1. then Alcotest.failf "cap_frac %f out of [0,1]" f;
          if not (List.exists (fun a -> close a f) allowed) then
            Alcotest.failf "cap_frac %f not in the configured level set" f)
        s.FM.cap_frac;
      (* alive mask must be derived from the fraction *)
      Array.iteri
        (fun e alive ->
          if alive <> (s.FM.cap_frac.(e) > 0.) then
            Alcotest.fail "edge_alive inconsistent with cap_frac")
        s.FM.edge_alive)
    scenarios

(* Effective capacities stay within [0, nominal] through the Instance
   layer. *)
let test_effective_capacity_bounds () =
  let options =
    {
      Flexile_core.Builder.default_options with
      Flexile_core.Builder.scenario_mix = "srlg,partial";
      max_scenarios = 40;
      max_pairs = 30;
    }
  in
  let inst = Flexile_core.Builder.of_name ~options "Sprint" in
  let g = inst.Instance.graph in
  for sid = 0 to Instance.nscenarios inst - 1 do
    Array.iteri
      (fun e (edge : Flexile_net.Graph.edge) ->
        let c = Instance.edge_capacity inst ~sid e in
        if c < 0. || c > edge.Flexile_net.Graph.capacity +. 1e-12 then
          Alcotest.failf "effective capacity %f outside [0, %f]" c
            edge.Flexile_net.Graph.capacity)
      g.Flexile_net.Graph.edges
  done

(* SRLG members fail atomically: in every enumerated scenario of a
   pure SRLG generator, each group is either fully dead or fully
   alive. *)
let test_srlg_atomicity () =
  let graph = ibm () in
  let groups = Flexile_net.Catalog.srlgs graph in
  let gen =
    FM.srlg
      ~nedges:(Flexile_net.Graph.nedges graph)
      ~groups ~seed:(Prng.of_string "sg-atomic") ()
  in
  let scenarios = FM.enumerate ~max_scenarios:300 gen in
  Array.iter
    (fun (s : FM.scenario) ->
      Array.iter
        (fun group ->
          let dead =
            Array.fold_left
              (fun acc e -> acc + (if s.FM.edge_alive.(e) then 0 else 1))
              0 group
          in
          if dead <> 0 && dead <> Array.length group then
            Alcotest.failf "scenario %d: group partially failed (%d/%d)"
              s.FM.sid dead (Array.length group))
        groups)
    scenarios;
  (* every edge is covered by exactly one group *)
  let ne = Flexile_net.Graph.nedges graph in
  let count = Array.make ne 0 in
  Array.iter (Array.iter (fun e -> count.(e) <- count.(e) + 1)) groups;
  Array.iteri
    (fun e c ->
      if c <> 1 then Alcotest.failf "edge %d in %d groups, expected 1" e c)
    count

(* Maintenance: wall-clock-free determinism, exclusive windows, and
   schedule validation. *)
let test_maintenance () =
  let windows =
    [
      { FM.wname = "w0"; wedges = [| 0 |]; wstart = 0.; wduration = 10. };
      { FM.wname = "w1"; wedges = [| 1; 2 |]; wstart = 20.; wduration = 5. };
    ]
  in
  let gen () = FM.maintenance ~nedges:4 ~horizon:168. windows in
  let s1 = exhaustive (gen ()) in
  let s2 = exhaustive (gen ()) in
  (* same schedule -> identical sets, bit for bit, on repeated calls
     (nothing reads a clock or a global RNG) *)
  Alcotest.(check int) "same count" (Array.length s1) (Array.length s2);
  Array.iteri
    (fun i (a : FM.scenario) ->
      let b = s2.(i) in
      if not (Fc.exactly_equal a.FM.prob b.FM.prob) then
        Alcotest.fail "maintenance probabilities differ across calls";
      if a.FM.edge_alive <> b.FM.edge_alive then
        Alcotest.fail "maintenance alive masks differ across calls")
    s1;
  (* nominal + one scenario per window: windows are mutually exclusive
     states of one unit, never jointly active *)
  Alcotest.(check int) "nominal + 2 windows" 3 (Array.length s1);
  let w0 = 10. /. 168. and w1 = 5. /. 168. in
  Alcotest.(check (float 1e-12)) "nominal mass" (1. -. w0 -. w1) s1.(0).FM.prob;
  (* each window removes exactly its own edges *)
  Array.iter
    (fun (s : FM.scenario) ->
      if Array.length s.FM.failed_units > 0 then begin
        let dead =
          Array.to_list
            (Array.of_seq
               (Seq.filter
                  (fun e -> not s.FM.edge_alive.(e))
                  (Seq.init 4 Fun.id)))
        in
        let expected =
          if close s.FM.prob w0 then [ 0 ] else [ 1; 2 ]
        in
        Alcotest.(check (list int)) "window edge set" expected dead
      end)
    s1;
  (* overlapping windows are rejected *)
  (try
     ignore
       (FM.maintenance ~nedges:4 ~horizon:168.
          [
            { FM.wname = "a"; wedges = [| 0 |]; wstart = 0.; wduration = 10. };
            { FM.wname = "b"; wedges = [| 1 |]; wstart = 5.; wduration = 10. };
          ]);
     Alcotest.fail "overlap not rejected"
   with Invalid_argument _ -> ());
  (* windows outside the horizon are rejected *)
  try
    ignore
      (FM.maintenance ~nedges:4 ~horizon:24.
         [ { FM.wname = "a"; wedges = [| 0 |]; wstart = 20.; wduration = 10. } ]);
    Alcotest.fail "out-of-horizon window not rejected"
  with Invalid_argument _ -> ()

(* Same seed -> identical generator output; different seed -> the
   Weibull draws differ. *)
let test_seed_determinism () =
  let graph = ibm () in
  let build s = FM.partial ~graph ~seed:(Prng.of_string s) () in
  let a = FM.enumerate ~max_scenarios:80 (build "seed-A") in
  let b = FM.enumerate ~max_scenarios:80 (build "seed-A") in
  let c = FM.enumerate ~max_scenarios:80 (build "seed-B") in
  Array.iteri
    (fun i (s : FM.scenario) ->
      if not (Fc.exactly_equal s.FM.prob b.(i).FM.prob) then
        Alcotest.fail "same seed produced different scenario probabilities")
    a;
  let differs = ref (Array.length a <> Array.length c) in
  if not !differs then
    Array.iteri
      (fun i (x : FM.scenario) ->
        if not (Fc.exactly_equal x.FM.prob c.(i).FM.prob) then differs := true)
      a;
  if not !differs then Alcotest.fail "different seeds produced identical sets"

(* Demand effects: per-scenario pair factors fold multiplicatively
   over the failed units' states. *)
let test_demand_factors () =
  let drift =
    FM.demand_states ~nedges:2 ~name:"drift"
      [| (0.1, FM.Per_pair [| 2.; 0.5 |]) |]
  in
  let diurnal = FM.demand_states ~nedges:2 ~name:"diurnal" [| (0.2, FM.Scale 1.5) |] in
  let gen = FM.compose [ drift; diurnal ] in
  let scenarios = exhaustive gen in
  (match FM.pair_factors gen scenarios with
  | None -> Alcotest.fail "expected pair factors"
  | Some pf ->
      Alcotest.(check int) "4 scenarios" 4 (Array.length pf);
      Array.iteri
        (fun sid (s : FM.scenario) ->
          let expected = Array.make 2 1. in
          Array.iter
            (fun u ->
              if u = 0 then begin
                expected.(0) <- expected.(0) *. 2.;
                expected.(1) <- expected.(1) *. 0.5
              end
              else begin
                expected.(0) <- expected.(0) *. 1.5;
                expected.(1) <- expected.(1) *. 1.5
              end)
            s.FM.failed_units;
          Array.iteri
            (fun p f ->
              if not (close f expected.(p)) then
                Alcotest.failf "scenario %d pair %d factor %f /= %f" sid p f
                  expected.(p))
            pf.(sid))
        scenarios);
  (* a capacity-only generator attaches no factors *)
  let cap_only = FM.srlg ~nedges:2 ~groups:[| [| 0 |] |] ~seed:(Prng.of_string "x") () in
  if FM.pair_factors cap_only (exhaustive cap_only) <> None then
    Alcotest.fail "capacity-only generator produced demand factors"

(* ---------- statistical tests ---------- *)

(* One Monte-Carlo draw of a joint state: per unit, the index of its
   active state or [-1] for nominal, one uniform draw per unit in unit
   order. *)
let sample (t : FM.t) rng =
  Array.map
    (fun (u : FM.failure_unit) ->
      let x = Prng.float rng in
      let acc = ref 0. and hit = ref (-1) in
      Array.iteri
        (fun s (st : FM.state) ->
          if !hit < 0 then begin
            acc := !acc +. st.FM.prob;
            if x < !acc then hit := s
          end)
        u.FM.states;
      !hit)
    t.FM.units

let state_edges (u : FM.failure_unit) (st : FM.state) =
  match st.FM.sedges with Some e -> e | None -> u.FM.edges

(* The analytic probability that edge [e] is hard-down: some unit sits
   in a frac-0 state containing it, units independent. *)
let edge_down_prob (t : FM.t) e =
  let up = ref 1. in
  Array.iter
    (fun (u : FM.failure_unit) ->
      let down = ref 0. in
      Array.iter
        (fun (s : FM.state) ->
          if s.FM.frac <= 0. && Array.mem e (state_edges u s) then
            down := !down +. s.FM.prob)
        u.FM.states;
      up := !up *. (1. -. !down))
    t.FM.units;
  1. -. !up

(* Empirical state frequencies over a large seeded sample match the
   analytic probabilities within a 3-sigma binomial bound.  The seed
   is fixed: this either always passes or always fails. *)
let test_sampling_statistics () =
  let n = 20000 in
  let graph = ibm () in
  let groups = Flexile_net.Catalog.srlgs graph in
  let gen =
    FM.compose
      [
        FM.srlg
          ~nedges:(Flexile_net.Graph.nedges graph)
          ~groups ~seed:(Prng.of_string "sg-stat-groups") ();
      ]
  in
  let nunits = Array.length gen.FM.units in
  let hits = Array.make nunits 0 in
  let rng = Prng.of_string "sg-stat-draws" in
  for _ = 1 to n do
    let states = sample gen rng in
    Array.iteri (fun u s -> if s >= 0 then hits.(u) <- hits.(u) + 1) states
  done;
  Array.iteri
    (fun u hit ->
      let p = gen.FM.units.(u).FM.states.(0).FM.prob in
      let freq = float_of_int hit /. float_of_int n in
      let sigma = sqrt (p *. (1. -. p) /. float_of_int n) in
      (* 3 sigma, plus a tiny absolute floor for very small p where
         the normal approximation is loose at this sample size *)
      let bound = (3. *. sigma) +. (1.5 /. float_of_int n) in
      if Float.abs (freq -. p) > bound then
        Alcotest.failf "unit %d (%s): freq %.5f vs p %.5f (bound %.5f)" u
          gen.FM.units.(u).FM.uname freq p bound)
    hits

(* Per-edge hard-down frequency matches the analytic edge_down_prob
   for a mixed generator (srlg + partial share edges). *)
let test_edge_down_statistics () =
  let n = 20000 in
  let graph = Flexile_net.Catalog.triangle () in
  let gen =
    FM.compose
      [
        FM.srlg ~nedges:3
          ~groups:[| [| 0; 1 |] |]
          ~seed:(Prng.of_string "sg-stat2-srlg") ();
        FM.partial ~graph ~seed:(Prng.of_string "sg-stat2-partial") ();
      ]
  in
  let down = Array.make 3 0 in
  let rng = Prng.of_string "sg-stat2-draws" in
  for _ = 1 to n do
    let states = sample gen rng in
    let frac = Array.make 3 1. in
    Array.iteri
      (fun u s ->
        if s >= 0 then begin
          let unit = gen.FM.units.(u) in
          let st = unit.FM.states.(s) in
          let edges = state_edges unit st in
          Array.iter (fun e -> frac.(e) <- frac.(e) *. st.FM.frac) edges
        end)
      states;
    for e = 0 to 2 do
      if not (frac.(e) > 0.) then down.(e) <- down.(e) + 1
    done
  done;
  for e = 0 to 2 do
    let p = edge_down_prob gen e in
    let freq = float_of_int down.(e) /. float_of_int n in
    let sigma = sqrt (p *. (1. -. p) /. float_of_int n) in
    let bound = (3. *. sigma) +. (1.5 /. float_of_int n) in
    if Float.abs (freq -. p) > bound then
      Alcotest.failf "edge %d: down freq %.5f vs analytic %.5f (bound %.5f)" e
        freq p bound
  done

(* ---------- differential tests ---------- *)

(* Singleton SRLGs draw exactly as the per-link model does: the same
   Weibull draws in edge order give bit-identical probabilities,
   capacity fractions and failed sets; only the regime tag differs. *)
let test_differential_singleton_srlg () =
  let graph = ibm () in
  let ne = Flexile_net.Graph.nedges graph in
  let links =
    FM.enumerate ~max_scenarios:150
      (FM.independent_links ~graph ~seed:(Prng.of_string "sg-diff") ())
  in
  let srlgs =
    FM.enumerate ~max_scenarios:150
      (FM.srlg ~nedges:ne
         ~groups:(Array.init ne (fun e -> [| e |]))
         ~seed:(Prng.of_string "sg-diff") ())
  in
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check int) "same count" (Array.length links) (Array.length srlgs);
  Array.iteri
    (fun i (x : FM.scenario) ->
      let y = srlgs.(i) in
      if
        Int64.bits_of_float x.FM.prob <> Int64.bits_of_float y.FM.prob
        || x.FM.failed_units <> y.FM.failed_units
        || bits x.FM.cap_frac <> bits y.FM.cap_frac
      then Alcotest.failf "scenario %d differs" i;
      let tag = if i = 0 then "nominal" else "srlg" in
      Alcotest.(check string) "srlg tag" tag y.FM.regime)
    links

(* The scenario-set pin: a digest of everything [Builder.of_name]
   hands the schemes about its scenarios — the bits of each
   probability and capacity fraction, the failed units and their
   states, the order, the regime tag (as [Instance.regime]) and the
   demand factors — for every Table-2 topology, single- and
   two-class, under each regime alone and three compositions, plus
   the paper's toy instances.  Recorded before the failure model was
   folded into one unit type; any refactor of scenario construction
   must leave it unchanged.  [max_pairs] is small because the
   scenario set does not depend on which pairs are sampled, only the
   length of the drift factor vectors does. *)
let pin_mixes =
  [
    "independent"; "srlg"; "partial"; "drift"; "diurnal"; "maintenance";
    "srlg,partial"; "independent,drift"; "srlg,partial,drift";
  ]

let digest_scenarios buf inst =
  let bits f = Printf.bprintf buf "%Lx;" (Int64.bits_of_float f) in
  let ints a =
    Array.iter (Printf.bprintf buf "%d,") a;
    Buffer.add_char buf '|'
  in
  Array.iteri
    (fun sid (s : FM.scenario) ->
      bits s.FM.prob;
      ints s.FM.failed_units;
      ints s.FM.failed_states;
      Array.iter bits s.FM.cap_frac;
      Printf.bprintf buf "%s\n" (Instance.regime inst ~sid))
    inst.Instance.scenarios;
  match inst.Instance.demand_factors with
  | None -> Buffer.add_string buf "no factors\n"
  | Some df -> Array.iter (fun row -> Array.iter bits row; Buffer.add_char buf '\n') df

let pin_digest name =
  let buf = Buffer.create 4096 in
  List.iter
    (fun two_classes ->
      List.iter
        (fun mix ->
          let options =
            {
              Flexile_core.Builder.default_options with
              Flexile_core.Builder.scenario_mix = mix;
              max_pairs = 12;
            }
          in
          Printf.bprintf buf "%s %b\n" mix two_classes;
          digest_scenarios buf
            (Flexile_core.Builder.of_name ~options ~two_classes name))
        pin_mixes)
    [ false; true ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_digests =
  [
    ("fig1", "e9f6b868785f7a7962e6dd2ad2bd102c");
    ("fig17", "e9f6b868785f7a7962e6dd2ad2bd102c");
    ("Sprint", "aff748e9de9d6f2c1886fca56ec418dc");
    ("B4", "3338debca41312cff3287b29cfad8feb");
    ("IBM", "e0278676059ab6a79e00f599b99a9cb6");
    ("CWIX", "d4d89cd09e47ada0f651fe6e5f2f3d7d");
    ("Highwinds", "99287403ce2f169e7cef993490f03b85");
    ("Quest", "d0392221a40fba3708afde7fb3f77320");
    ("Darkstrand", "2edcdd9172b12bdaf8c5e10869ae712e");
    ("Integra", "f506830f918de7fc200ae33b27798f03");
    ("Xeex", "27954e3b02a0461f40b8f39fe48ba9a1");
    ("InternetMCI", "85ea0aac0699596e2e89ec4ee69e8c53");
    ("Digex", "d5735ed33a2786398eceb790e82e319c");
    ("CRLNetwork", "66573f8fa57768fa55febcba11e05e87");
    ("JanetBackbone", "502ac507a60d1dc1ad3fcbca691458c9");
    ("Xspedius", "baaa698ca0665290bb66fba7cf2501cc");
    ("GEANT", "9371852d2816660764eaf25949522488");
    ("IIJ", "b0b60eff334a65fc51ed59afe6415471");
    ("ATT", "7d9a00b4617aa8a8db39ef3f6f07c84e");
    ("BTNorthAmerica", "27a1d80ede69e4a0c9b1cc1856f3940c");
    ("Tinet", "87c115253fb10b8f7adb6c11566b9e98");
    ("Deltacom", "5962b1f4a10f4e4bea06ae016695dbc6");
  ]

let test_scenario_set_pin () =
  let toy name inst =
    let buf = Buffer.create 256 in
    digest_scenarios buf inst;
    (name, Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  let got =
    toy "fig1" (Flexile_core.Builder.fig1 ())
    :: toy "fig17" (Toys.fig17 ())
    :: List.map
         (fun (name, _, _) -> (name, pin_digest name))
         Flexile_net.Catalog.table2
  in
  let wrong =
    List.filter
      (fun (name, d) ->
        match List.assoc_opt name pinned_digests with
        | Some pinned -> not (String.equal pinned d)
        | None -> true)
      got
  in
  if wrong <> [] then
    Alcotest.failf "scenario sets moved:\n%s"
      (String.concat "\n"
         (List.map (fun (name, d) -> Printf.sprintf "    (%S, %S);" name d) wrong))

(* A mixed-regime sweep is identical at --jobs 1 and --jobs 4. *)
let test_differential_jobs () =
  let options =
    {
      Flexile_core.Builder.default_options with
      Flexile_core.Builder.scenario_mix = "srlg,partial,drift";
      max_scenarios = 24;
      max_pairs = 24;
    }
  in
  let inst = Flexile_core.Builder.of_name ~options "Sprint" in
  if inst.Instance.demand_factors = None then
    Alcotest.fail "drift mix should attach demand factors";
  let l1 = Flexile_core.Schemes.run ~jobs:1 Flexile_core.Schemes.Swan_maxmin inst in
  let l4 = Flexile_core.Schemes.run ~jobs:4 Flexile_core.Schemes.Swan_maxmin inst in
  Array.iteri
    (fun fid row ->
      Array.iteri
        (fun sid v ->
          if not (Fc.exactly_equal v l4.(fid).(sid)) then
            Alcotest.failf "loss (%d,%d) differs between jobs 1 and 4" fid sid)
        row)
    l1

(* ---------- regression: multi-state mass accounting ---------- *)

(* Binary models keep the historical accounting: nominal probability
   is the product of per-unit complements.  Pinned so the corrected
   multi-state accounting cannot drift the binary path. *)
let test_regression_binary_accounting () =
  let m = FM.binary ~nedges:3 [| 0.1; 0.2; 0.3 |] in
  let all = FM.enumerate ~cutoff:0. ~max_scenarios:100 m in
  Alcotest.(check (float 0.)) "binary nominal = product of complements"
    (0.9 *. 0.8 *. 0.7) all.(0).FM.prob;
  Alcotest.(check int) "8 binary subsets" 8 (Array.length all);
  Alcotest.(check (float 1e-12)) "binary mass" 1.0 (FM.coverage all)

(* The fix itself (the model built as a record, past the generators'
   validation): states of one unit are disjoint events, so the
   nominal mass is 1 - sum(states) — NOT the product of complements
   the old binary up/down assumption would give.  With a hard-down
   state (p=0.1) and a partial state (p=0.2, 30% capacity) on one
   link: correct nominal 0.7; the naive accounting would say
   0.9 * 0.8 = 0.72 and the enumeration would overcount to 1.02. *)
let link_states states =
  {
    FM.nedges = 1;
    units =
      [|
        {
          FM.uname = "link";
          regime = "partial";
          edges = [| 0 |];
          states =
            Array.map
              (fun (prob, frac) ->
                { FM.prob; frac; demand = FM.No_change; sedges = None })
              states;
        };
      |];
  }

let test_regression_multistate_accounting () =
  let m = link_states [| (0.1, 0.); (0.2, 0.3) |] in
  let all = FM.enumerate ~cutoff:0. ~max_scenarios:100 m in
  Alcotest.(check int) "nominal + 2 states" 3 (Array.length all);
  Alcotest.(check (float 1e-12)) "nominal is 1 - sum, not product" 0.7
    all.(0).FM.prob;
  (* best-first order: the likelier partial state enumerates before
     the hard cut *)
  Alcotest.(check (float 1e-12)) "partial mass" 0.2 all.(1).FM.prob;
  Alcotest.(check (float 1e-12)) "hard-down mass" 0.1 all.(2).FM.prob;
  Alcotest.(check (float 1e-12)) "total mass exactly 1" 1.0 (FM.coverage all);
  (* the partial state carries its fraction into the scenario *)
  let partial =
    Array.to_list all
    |> List.find (fun (s : FM.scenario) ->
           Array.length s.FM.failed_units > 0 && s.FM.edge_alive.(0))
  in
  Alcotest.(check (float 0.)) "partial cap_frac" 0.3 partial.FM.cap_frac.(0);
  (* a unit whose states together reach mass 0.5 is rejected *)
  try
    ignore
      (FM.demand_states ~nedges:1 ~name:"link"
         [| (0.3, FM.No_change); (0.25, FM.Scale 0.5) |]);
    Alcotest.fail "unit mass >= 0.5 not rejected"
  with Invalid_argument _ -> ()

(* ---------- mix parsing ---------- *)

(* Seeded byte mutations of a mix spec: [Builder.parse_mix] answers Ok
   with known, distinct regimes, or Error — never an exception. *)
let prop_mutated_mix_parses =
  let spec = "srlg,partial,drift,Diurnal,maintenance,independent" in
  let known =
    [ "independent"; "srlg"; "partial"; "drift"; "diurnal"; "maintenance" ]
  in
  QCheck.Test.make ~name:"mutated mixes parse as Ok or Error" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") (Fuzz.mutation_gen spec))
    (fun s ->
      match Flexile_core.Builder.parse_mix s with
      | Error _ -> true
      | Ok tokens ->
          tokens <> []
          && List.for_all (fun t -> List.mem t known) tokens
          && List.length (List.sort_uniq String.compare tokens) = List.length tokens)

let test_parse_mix_errors () =
  let parse = Flexile_core.Builder.parse_mix in
  Alcotest.(check (result (list string) string))
    "case-insensitive, duplicates dropped"
    (Ok [ "srlg"; "partial" ])
    (parse " SRLG,partial,srlg,");
  Alcotest.(check (result (list string) string))
    "the unknown regime is named"
    (Error
       "unknown scenario regime \"bogus\" (known: independent, srlg, partial, \
        drift, diurnal, maintenance)")
    (parse "srlg,bogus");
  Alcotest.(check (result (list string) string))
    "empty mix" (Error "empty scenario mix") (parse " , ")

let () =
  Alcotest.run "flexile_scenario_gen"
    [
      ( "properties",
        [
          quick "mass sums to 1" test_mass_sums_to_one;
          quick "truncated coverage" test_truncated_coverage;
          quick "partial fraction bounds" test_partial_fraction_bounds;
          quick "effective capacity bounds" test_effective_capacity_bounds;
          quick "srlg atomicity" test_srlg_atomicity;
          quick "maintenance schedule" test_maintenance;
          quick "seed determinism" test_seed_determinism;
          quick "demand factors" test_demand_factors;
        ] );
      ( "statistics",
        [
          quick "state frequencies (3 sigma)" test_sampling_statistics;
          quick "edge-down frequencies (3 sigma)" test_edge_down_statistics;
        ] );
      ( "differential",
        [
          quick "scenario-set pin" test_scenario_set_pin;
          quick "singleton srlg vs independent" test_differential_singleton_srlg;
          quick "mixed sweep jobs 1 vs 4" test_differential_jobs;
        ] );
      ( "mix parsing",
        [
          quick "errors name the token" test_parse_mix_errors;
          Fuzz.to_alcotest prop_mutated_mix_parses;
        ] );
      ( "regression",
        [
          quick "binary accounting pinned" test_regression_binary_accounting;
          quick "multi-state accounting fix" test_regression_multistate_accounting;
        ] );
    ]
