(* Miss attribution: *why* does a class miss (or burn budget toward
   missing) its percentile-loss objective?

   Three decompositions, all computed from artifacts the solver
   already produced — no re-solving beyond one small clairvoyant LP
   per (class, scenario) for the regret baseline:

   - scenario attribution: the class's binding flow (the arg-max of
     FlowLoss at beta) has a weighted loss distribution over
     scenarios; scenarios whose loss respects the promise contribute
     "good" mass, and the shortfall [beta - good_mass] is charged to
     the cheapest violating scenarios in ascending loss order — the
     exact scenarios that would have to be fixed for the percentile to
     clear the promise.  Attributed mass telescopes back to the miss
     mass by construction (the 1e-9 reconciliation discipline), with
     any remainder charged to unenumerated mass at loss 1.0, mirroring
     the paper's conservative treatment.

   - bottleneck attribution: each scenario's binding capacity edges
     and LP dual values, captured from the simplex solution the online
     allocation already computed (Scen_lp's ?duals surface), are
     aggregated into per-edge blame = sum over attributed scenarios of
     attributed_mass * dual.

   - regret attribution: online_loss - clairvoyant class optimum per
     (class, scenario) — how much the online critical-set allocator
     left on the table versus a solver that saw the scenario coming
     and had the network to itself.  Nonnegative up to LP tolerance
     (the online allocation restricted to the class is feasible for
     the relaxed LP).  Exported as the slo.regret histogram and the
     flexile_regret Prometheus family.

   Every scenario carries its failure-regime tag (Instance.regime), so
   attainment, attributed mass and regret are also reported
   conditioned on regime. *)

module Trace = Flexile_util.Trace
module Json = Flexile_util.Json
module Trace_export = Flexile_util.Trace_export
module Stats = Flexile_util.Stats
module Instance = Flexile_te.Instance
module Metrics = Flexile_te.Metrics
module Scen_lp = Flexile_te.Scen_lp
module Scenario_engine = Flexile_te.Scenario_engine
module Flexile_online = Flexile_te.Flexile_online
module Failure_model = Flexile_failure.Failure_model
module Graph = Flexile_net.Graph

(* value-distribution histogram (no _seconds suffix): survives the
   deterministic export filter, so regret shows up in monitor
   artifacts *)
let h_regret = Trace.hist "slo.regret"

type inputs = {
  inst : Instance.t;
  promised : float array;
  tol : float;
  online : Instance.losses;
  regret : float array array;
  duals : (int * float) list array;
}

let online_losses t = t.online
let regret t = t.regret

let prepare ?jobs ?(tol = 1e-6) inst ~offline ~promised () =
  let nk = Array.length inst.Instance.classes in
  if Array.length promised <> nk then invalid_arg "Attribution.prepare: promised";
  let online, duals = Flexile_online.run_with_duals ?jobs inst ~offline in
  (* clairvoyant per-class optima: one LP per (scenario, class), each
     with solver state of its own, fanned out deterministically (static
     sharding) *)
  let optima =
    Scenario_engine.sweep ?jobs inst
      ~init:(fun _ -> ())
      ~f:(fun () sid ->
        Array.init nk (fun k -> Scen_lp.class_optimum inst ~sid ~cls:k))
  in
  let ns = Instance.nscenarios inst in
  let class_max = Array.make_matrix nk ns 0. in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then
        for sid = 0 to ns - 1 do
          class_max.(f.Instance.cls).(sid) <-
            Float.max class_max.(f.Instance.cls).(sid)
              online.(f.Instance.fid).(sid)
        done)
    inst.Instance.flows;
  let regret =
    Array.init nk (fun k ->
        Array.init ns (fun sid -> class_max.(k).(sid) -. optima.(sid).(k)))
  in
  for k = 0 to nk - 1 do
    for sid = 0 to ns - 1 do
      Trace.observe h_regret (Float.max 0. regret.(k).(sid))
    done
  done;
  { inst; promised = Array.copy promised; tol; online; regret; duals }

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

type bottleneck = { bedge : int; bu : int; bv : int; bdual : float }

type scen_attr = {
  ssid : int;
  sregime : string;
  sprob : float;
  sloss : float;
  sattr : float;
  sregret : float;
  sbottlenecks : bottleneck list;
}

type regime_attr = {
  gregime : string;
  gmass : float;
  gattr : float;
  gattainment : float;
  gattained : bool;
  gregret : float;
}

type class_attr = {
  acls : int;
  aname : string;
  abeta : float;
  apromised : float;
  aobserved : float;
  aattained : bool;
  abinding_fid : int;
  agood_mass : float;
  abad_mass : float;
  amiss_mass : float;
  aburn : float;
  ascenarios : scen_attr list;
  aother_mass : float;
  aunenumerated : float;
  aregimes : regime_attr list;
  ablame : bottleneck list;
  aregret_expected : float;
  aregret_max : float;
  apromise_gap : float;
}

type report = { rtol : float; classes : class_attr list }

let attributed_total c =
  List.fold_left (fun a s -> a +. s.sattr) 0. c.ascenarios
  +. c.aother_mass +. c.aunenumerated

let edge_ends inst e =
  let edge = inst.Instance.graph.Graph.edges.(e) in
  (edge.Graph.u, edge.Graph.v)

let mk_bottleneck inst (e, d) =
  let u, v = edge_ends inst e in
  { bedge = e; bu = u; bv = v; bdual = d }

(* descending by value, ties on ascending edge id: deterministic *)
let sort_edges_desc l =
  List.sort
    (fun (e1, d1) (e2, d2) ->
      match Float.compare d2 d1 with 0 -> Int.compare e1 e2 | c -> c)
    l

let analyze ?(top = max_int) t ~losses =
  let inst = t.inst in
  let ns = Instance.nscenarios inst in
  let regime_names = Instance.regime_names inst in
  let scen_regime = Array.init ns (fun sid -> Instance.regime inst ~sid) in
  let scen_prob =
    Array.map (fun (s : Failure_model.scenario) -> s.Failure_model.prob)
      inst.Instance.scenarios
  in
  let classes =
    List.init (Array.length inst.Instance.classes) @@ fun k ->
    let c = inst.Instance.classes.(k) in
    let beta = c.Instance.beta in
    let promised = t.promised.(k) in
    let observed = Metrics.perc_loss inst losses ~cls:k in
    (* the binding flow: first arg-max of FlowLoss(f, beta) — the flow
       whose tail distribution IS the class percentile *)
    let binding = ref (-1) and best = ref Float.neg_infinity in
    Array.iter
      (fun (f : Instance.flow) ->
        if f.Instance.cls = k && f.Instance.demand > 0. then begin
          let v = Metrics.flow_loss_var inst losses f ~beta in
          if v > !best then begin
            best := v;
            binding := f.Instance.fid
          end
        end)
      inst.Instance.flows;
    let loss_of sid = if !binding >= 0 then losses.(!binding).(sid) else 0. in
    let good_mass = ref 0. and bad = ref [] and bad_mass = ref 0. in
    for sid = ns - 1 downto 0 do
      let l = loss_of sid in
      if l <= promised +. t.tol then good_mass := !good_mass +. scen_prob.(sid)
      else begin
        bad := (sid, l, scen_prob.(sid)) :: !bad;
        bad_mass := !bad_mass +. scen_prob.(sid)
      end
    done;
    let miss_mass = Float.max 0. (beta -. !good_mass) in
    let burn =
      if beta < 1. then !bad_mass /. (1. -. beta)
      else if !bad_mass > 0. then Float.infinity
      else 0.
    in
    (* charge the miss mass to the cheapest violating scenarios in
       ascending loss order; what the enumerated set cannot cover is
       unenumerated mass at loss 1.0 *)
    let sorted_bad =
      List.sort
        (fun (s1, l1, _) (s2, l2, _) ->
          match Float.compare l1 l2 with 0 -> Int.compare s1 s2 | c -> c)
        !bad
    in
    let remaining = ref miss_mass in
    let attributed =
      List.filter_map
        (fun (sid, l, p) ->
          let a = Float.min p !remaining in
          remaining := !remaining -. a;
          if a > 0. then Some (sid, l, p, a) else None)
        sorted_bad
    in
    let unenumerated = Float.max 0. !remaining in
    (* rank by attributed mass for the report *)
    let ranked =
      List.sort
        (fun (s1, _, _, a1) (s2, _, _, a2) ->
          match Float.compare a2 a1 with 0 -> Int.compare s1 s2 | c -> c)
        attributed
    in
    let shown, hidden =
      List.mapi (fun i x -> (i, x)) ranked
      |> List.partition (fun (i, _) -> i < top)
    in
    let other_mass =
      List.fold_left (fun acc (_, (_, _, _, a)) -> acc +. a) 0. hidden
    in
    let scen_attrs =
      List.map
        (fun (_, (sid, l, p, a)) ->
          {
            ssid = sid;
            sregime = scen_regime.(sid);
            sprob = p;
            sloss = l;
            sattr = a;
            sregret = Float.max 0. t.regret.(k).(sid);
            sbottlenecks =
              (let tops =
                 match sort_edges_desc t.duals.(sid) with
                 | a :: b :: c :: d :: e :: _ -> [ a; b; c; d; e ]
                 | l -> l
               in
               List.map (mk_bottleneck inst) tops);
          })
        shown
    in
    (* per-regime: total mass, attributed mass, conditional attainment
       (probabilities renormalized within the regime), mean regret *)
    let regimes =
      List.filter_map
        (fun r ->
          let mass = ref 0. in
          for sid = 0 to ns - 1 do
            if String.equal scen_regime.(sid) r then
              mass := !mass +. scen_prob.(sid)
          done;
          if !mass <= 0. then None
          else begin
            let attr =
              List.fold_left
                (fun acc (sid, _, _, a) ->
                  if String.equal scen_regime.(sid) r then acc +. a else acc)
                0. attributed
            in
            let cond_var (f : Instance.flow) =
              let samples = ref [] in
              for sid = ns - 1 downto 0 do
                if String.equal scen_regime.(sid) r then
                  samples :=
                    (losses.(f.Instance.fid).(sid), scen_prob.(sid) /. !mass)
                    :: !samples
              done;
              Stats.weighted_var (Array.of_list !samples) ~beta
            in
            let attainment =
              Array.fold_left
                (fun acc (f : Instance.flow) ->
                  if f.Instance.cls = k && f.Instance.demand > 0. then
                    Float.max acc (cond_var f)
                  else acc)
                0. inst.Instance.flows
            in
            let wregret = ref 0. in
            for sid = 0 to ns - 1 do
              if String.equal scen_regime.(sid) r then
                wregret :=
                  !wregret
                  +. (scen_prob.(sid) *. Float.max 0. t.regret.(k).(sid))
            done;
            Some
              {
                gregime = r;
                gmass = !mass;
                gattr = attr;
                gattainment = attainment;
                gattained = attainment <= promised +. t.tol;
                gregret = !wregret /. !mass;
              }
          end)
        regime_names
    in
    (* per-edge blame: attributed mass times dual, summed over the
       attributed scenarios *)
    let blame_acc = Array.make (Graph.nedges inst.Instance.graph) 0. in
    List.iter
      (fun (sid, _, _, a) ->
        List.iter
          (fun (e, d) -> blame_acc.(e) <- blame_acc.(e) +. (a *. d))
          t.duals.(sid))
      attributed;
    let blame =
      let nz = ref [] in
      for e = Array.length blame_acc - 1 downto 0 do
        if blame_acc.(e) > 0. then nz := (e, blame_acc.(e)) :: !nz
      done;
      let tops =
        match sort_edges_desc !nz with
        | a :: b :: c :: d :: e :: f' :: g :: h :: i :: j :: _ ->
            [ a; b; c; d; e; f'; g; h; i; j ]
        | l -> l
      in
      List.map (mk_bottleneck inst) tops
    in
    let regret_expected = ref 0. and regret_max = ref 0. in
    for sid = 0 to ns - 1 do
      let r = Float.max 0. t.regret.(k).(sid) in
      regret_expected := !regret_expected +. (scen_prob.(sid) *. r);
      regret_max := Float.max !regret_max r
    done;
    {
      acls = k;
      aname = c.Instance.cname;
      abeta = beta;
      apromised = promised;
      aobserved = observed;
      aattained = observed <= promised +. t.tol;
      abinding_fid = !binding;
      agood_mass = !good_mass;
      abad_mass = !bad_mass;
      amiss_mass = miss_mass;
      aburn = burn;
      ascenarios = scen_attrs;
      aother_mass = other_mass;
      aunenumerated = unenumerated;
      aregimes = regimes;
      ablame = blame;
      aregret_expected = !regret_expected;
      aregret_max = !regret_max;
      apromise_gap = Float.max 0. (observed -. promised);
    }
  in
  { rtol = t.tol; classes }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let num x = Json.Number x

let bottleneck_json bn =
  Json.Object
    [
      ("edge", Json.int bn.bedge);
      ("u", Json.int bn.bu);
      ("v", Json.int bn.bv);
      ("dual", num bn.bdual);
    ]

let regime_json g =
  Json.Object
    [
      ("regime", Json.String g.gregime);
      ("mass", num g.gmass);
      ("attributed", num g.gattr);
      ("attainment", num g.gattainment);
      ("attained", Json.Bool g.gattained);
      ("regret", num g.gregret);
    ]

let class_json (a : class_attr) =
  Json.Object
    [
      ("cls", Json.int a.acls);
      ("name", Json.String a.aname);
      ("beta", num a.abeta);
      ("promised", num a.apromised);
      ("observed", num a.aobserved);
      ("attained", Json.Bool a.aattained);
      ("binding_flow", Json.int a.abinding_fid);
      ("good_mass", num a.agood_mass);
      ("bad_mass", num a.abad_mass);
      ("miss_mass", num a.amiss_mass);
      ("budget_burn", num a.aburn);
      ("attributed", num (attributed_total a));
      ("other_mass", num a.aother_mass);
      ("unenumerated", num a.aunenumerated);
      ( "regret",
        Json.Object
          [
            ("expected", num a.aregret_expected);
            ("max", num a.aregret_max);
            ("promise_gap", num a.apromise_gap);
          ] );
      ( "scenarios",
        Json.Array
          (List.map
             (fun s ->
               Json.Object
                 [
                   ("sid", Json.int s.ssid);
                   ("regime", Json.String s.sregime);
                   ("prob", num s.sprob);
                   ("loss", num s.sloss);
                   ("attributed", num s.sattr);
                   ("regret", num s.sregret);
                   ("bottlenecks", Json.Array (List.map bottleneck_json s.sbottlenecks));
                 ])
             a.ascenarios) );
      ("regimes", Json.Array (List.map regime_json a.aregimes));
      ("blame", Json.Array (List.map bottleneck_json a.ablame));
    ]

let report_json r =
  Json.Object
    [ ("tol", num r.rtol); ("classes", Json.Array (List.map class_json r.classes)) ]

let per_class_json f r =
  Json.Object [ ("classes", Json.Array (List.map f r.classes)) ]

(* compact per-snapshot form for JSONL lines: the reconciliation
   numbers and the regime split, without scenario/bottleneck detail *)
let snapshot_json =
  per_class_json (fun a ->
      Json.Object
        [
          ("cls", Json.int a.acls);
          ("attained", Json.Bool a.aattained);
          ("miss_mass", num a.amiss_mass);
          ("attributed", num (attributed_total a));
          ("unenumerated", num a.aunenumerated);
          ("budget_burn", num a.aburn);
          ("regret", num a.aregret_expected);
          ( "regimes",
            Json.Array
              (List.map
                 (fun g ->
                   Json.Object
                     [
                       ("regime", Json.String g.gregime);
                       ("attributed", num g.gattr);
                       ("attained", Json.Bool g.gattained);
                     ])
                 a.aregimes) );
        ])

(* regime-conditioned attainment on its own: which kind of failure is
   eating each class's budget *)
let regimes_json =
  per_class_json (fun a ->
      Json.Object
        [
          ("cls", Json.int a.acls);
          ("name", Json.String a.aname);
          ("promised", num a.apromised);
          ("observed", num a.aobserved);
          ("regimes", Json.Array (List.map regime_json a.aregimes));
        ])

(* Labeled gauge families appended to the Prometheus page; class and
   regime names are catalog strings, hence the label escaping. *)
let prometheus_families r =
  let per_class f = List.map (fun a -> ([ ("class", a.aname) ], f a)) r.classes in
  let per_regime f =
    List.concat_map
      (fun a ->
        List.map
          (fun g -> ([ ("class", a.aname); ("regime", g.gregime) ], f a g))
          a.aregimes)
      r.classes
  in
  String.concat ""
    [
      Trace_export.labeled_gauge ~name:"slo.miss_mass"
        (per_class (fun a -> a.amiss_mass));
      Trace_export.labeled_gauge ~name:"slo.budget_burn"
        (per_class (fun a -> a.aburn));
      Trace_export.labeled_gauge ~name:"slo.attainment"
        (List.map
           (fun a -> ([ ("class", a.aname); ("regime", "overall") ], a.aobserved))
           r.classes
        @ per_regime (fun _ g -> g.gattainment));
      Trace_export.labeled_gauge ~name:"regret"
        (List.map
           (fun a ->
             ([ ("class", a.aname); ("regime", "overall") ], a.aregret_expected))
           r.classes
        @ per_regime (fun _ g -> g.gregret));
    ]
