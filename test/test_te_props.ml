(* Property tests of the TE layer on small randomized instances:
   scheme-independent invariants that must hold on any input. *)

open Flexile_te
module Prng = Flexile_util.Prng

(* A small random instance: 4-6 nodes ring + chords, unit-ish demands,
   handful of scenarios. *)
let random_instance ?(mix = "independent") seed_name =
  let prng = Prng.of_string seed_name in
  let n = 4 + Prng.int prng 3 in
  let extra = Prng.int prng 3 in
  let m = min (n + extra) (n * (n - 1) / 2) in
  let graph =
    Flexile_net.Gen.random_graph ~name:seed_name ~n ~m
      ~seed:(Prng.split prng "topo")
  in
  let options =
    {
      Flexile_core.Builder.default_options with
      Flexile_core.Builder.max_scenarios = 12;
      max_pairs = 8;
      scenario_mix = mix;
    }
  in
  Flexile_core.Builder.single_class ~options ~graph ()

let losses_valid inst losses =
  Array.for_all
    (fun (f : Instance.flow) ->
      Array.for_all
        (fun l -> l >= -1e-9 && l <= 1. +. 1e-9)
        losses.(f.Instance.fid))
    inst.Instance.flows

let qcheck_scheme_invariants =
  QCheck.Test.make ~name:"scheme invariants on random instances" ~count:10
    QCheck.(make Gen.(int_range 0 1000))
    (fun salt ->
      let inst = random_instance (Printf.sprintf "prop-%d" salt) in
      let smore = Scenbest.run inst in
      let fx = (Flexile_scheme.run inst).Flexile_scheme.losses in
      let lb = Lower_bound.perc_loss_lower_bound inst ~cls:0 in
      let p_smore = Metrics.perc_loss inst smore ~cls:0 in
      let p_fx = Metrics.perc_loss inst fx ~cls:0 in
      losses_valid inst smore && losses_valid inst fx
      (* Flexile never loses to the scenario-by-scenario optimum at the
         percentile (Proposition 1 + iteration monotonicity) *)
      && p_fx <= p_smore +. 1e-5
      (* and never beats the isolated-flow lower bound *)
      && p_fx >= lb -. 1e-5)

let qcheck_maxmin_matches_minmax =
  (* the first max-min level equals the min-max optimum in every
     scenario: ScenLoss(maxmin) = optimal ScenLoss *)
  QCheck.Test.make ~name:"maxmin first level is the min-max optimum" ~count:8
    QCheck.(make Gen.(int_range 0 1000))
    (fun salt ->
      let inst = random_instance (Printf.sprintf "mm-%d" salt) in
      let maxmin = Scenbest.run inst in
      let optimal = Scenbest.scen_loss_optimal inst in
      let ok = ref true in
      for sid = 0 to Instance.nscenarios inst - 1 do
        let worst = Metrics.scen_loss inst maxmin ~sid in
        if Float.abs (worst -. optimal.(sid)) > 1e-5 then ok := false
      done;
      !ok)

let qcheck_teavar_weaker_than_adaptive =
  (* TeaVar's static split with proportional rescaling can never beat
     the per-scenario optimal ScenLoss *)
  QCheck.Test.make ~name:"teavar never beats per-scenario optimum" ~count:6
    QCheck.(make Gen.(int_range 0 1000))
    (fun salt ->
      let inst = random_instance (Printf.sprintf "tv-%d" salt) in
      let tv = (Teavar.run inst).Teavar.losses in
      let optimal = Scenbest.scen_loss_optimal inst in
      let ok = ref true in
      for sid = 0 to Instance.nscenarios inst - 1 do
        let worst = Metrics.scen_loss inst tv ~sid in
        if worst < optimal.(sid) -. 1e-5 then ok := false
      done;
      !ok)

(* Instances on which the subproblem's secondary loss objective once
   bought a smaller loss sum with a higher max loss, lifting Flexile's
   PercLoss above ScenBest's by up to 1.2e-4: the starting point's loss
   columns must stay at each scenario's min-max optimum. *)
let test_starting_point_at_optimum () =
  List.iter
    (fun salt ->
      let name = Printf.sprintf "prop-%d" salt in
      let inst = random_instance name in
      let r = Flexile_scheme.run inst in
      let start = List.hd r.Flexile_scheme.offline.Flexile_offline.iterates in
      let optimal = Scenbest.scen_loss_optimal inst in
      for sid = 0 to Instance.nscenarios inst - 1 do
        let worst =
          Metrics.scen_loss inst start.Flexile_offline.losses ~sid
        in
        if worst > optimal.(sid) +. 1e-7 then
          Alcotest.failf "%s scenario %d: loss %.9g above the optimum %.9g"
            name sid worst optimal.(sid)
      done;
      let p_smore = Metrics.perc_loss inst (Scenbest.run inst) ~cls:0 in
      let p_fx = Metrics.perc_loss inst r.Flexile_scheme.losses ~cls:0 in
      if p_fx > p_smore +. 1e-5 then
        Alcotest.failf "%s: PercLoss %.9g (Flexile) > %.9g (ScenBest)" name
          p_fx p_smore)
    [ 149; 309; 354; 514; 575 ]

(* The shared routing block against an incidence computed
   independently by scanning every tunnel's path: [edge_load] is that
   incidence, [capacity_rows] has a row exactly on the loaded edges,
   and [vars ~sid] makes one variable per alive tunnel. *)
let qcheck_routing_block =
  QCheck.Test.make ~name:"routing block matches the tunnel-path incidence" ~count:10
    QCheck.(make Gen.(int_range 0 1000))
    (fun salt ->
      let module Lp_model = Flexile_lp.Lp_model in
      let inst = random_instance (Printf.sprintf "rt-%d" salt) in
      let g = inst.Instance.graph in
      let ne = Flexile_net.Graph.nedges g in
      let sid = salt mod Instance.nscenarios inst in
      let incidence x =
        Array.init ne (fun e ->
            let acc = ref [] in
            Array.iteri
              (fun k per_pair ->
                Array.iteri
                  (fun i ts ->
                    Array.iteri
                      (fun t (tun : Flexile_net.Tunnels.t) ->
                        let v = x.(k).(i).(t) in
                        if v >= 0 && Array.mem e tun.Flexile_net.Tunnels.path then
                          acc := v :: !acc)
                      ts)
                  per_pair)
              inst.Instance.tunnels;
            List.sort compare !acc)
      in
      let check ?sid x model rows =
        let expected = incidence x in
        let load = Routing.edge_load g inst.Instance.tunnels x in
        Array.for_all Fun.id
          (Array.init ne (fun e ->
               let vars = List.sort compare (List.map fst load.(e)) in
               let cap =
                 match sid with
                 | None -> g.Flexile_net.Graph.edges.(e).Flexile_net.Graph.capacity
                 | Some sid -> Instance.edge_capacity inst ~sid e
               in
               vars = expected.(e)
               && List.for_all (fun (_, c) -> c = 1.) load.(e)
               && (expected.(e) = [] && rows.(e) = -1
                  || rows.(e) >= 0
                     && Lp_model.rhs model rows.(e) = cap
                     && List.sort compare (List.map fst (Lp_model.row_coeffs model rows.(e)))
                        = expected.(e))))
      in
      let nominal = Lp_model.create () in
      let x = Routing.vars nominal inst in
      let rows = Routing.capacity_rows nominal inst x in
      let scen = Lp_model.create () in
      let xs = Routing.vars ~sid scen inst in
      let srows = Routing.capacity_rows ~sid scen inst xs in
      let alive_count =
        Array.fold_left
          (Array.fold_left (fun a alive -> a + Array.length alive))
          0 inst.Instance.alive_tunnels.(sid)
      in
      let one_per_alive = ref true in
      Array.iteri
        (fun k ->
          Array.iteri (fun i ->
              Array.iteri (fun t v ->
                  let alive = Array.mem t inst.Instance.alive_tunnels.(sid).(k).(i) in
                  if (v >= 0) <> alive then one_per_alive := false)))
        xs;
      check x nominal rows && check ~sid xs scen srows
      && Lp_model.nvars scen = alive_count && !one_per_alive)

(* [Instance.scenario_classes] under the keys the CVaR LPs group by:
   Cvar-Flow's per flow (routing copy, alive tunnels, demand), with one
   routing copy (St) or one per scenario (Ad), and TeaVar's (every
   pair's alive tunnels, every flow's demand).  The classes partition
   the scenarios in first-occurrence order, share their key, differ
   from each other in it, and carry their members' summed mass; under
   per-scenario routing every class is a singleton. *)
let qcheck_scenario_classes =
  let mixes = [| "independent"; "srlg,partial"; "independent,drift"; "srlg,partial,drift" |] in
  QCheck.Test.make ~name:"scenario classes partition by the loss-row key" ~count:12
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 0 (Array.length mixes - 1))))
    (fun (salt, mix) ->
      let inst = random_instance ~mix:mixes.(mix) (Printf.sprintf "sc-%d" salt) in
      let nq = Instance.nscenarios inst in
      let prob q = inst.Instance.scenarios.(q).Flexile_failure.Failure_model.prob in
      let valid key classes =
        let firsts = Array.map (fun (c : Instance.scenario_class) -> c.Instance.first) classes in
        let all = List.concat_map (fun (c : Instance.scenario_class) -> Array.to_list c.Instance.members) (Array.to_list classes) in
        List.sort compare all = List.init nq Fun.id
        && Array.for_all
             (fun (c : Instance.scenario_class) ->
               let m = c.Instance.members in
               m.(0) = c.Instance.first
               && List.sort_uniq compare (Array.to_list m) = Array.to_list m
               && Array.for_all (fun q -> key q = key c.Instance.first) m
               && c.Instance.mass = Array.fold_left (fun acc q -> acc +. prob q) 0. m)
             classes
        && List.sort_uniq compare (Array.to_list firsts) = Array.to_list firsts
        && List.length (List.sort_uniq compare (Array.to_list (Array.map key firsts)))
           = Array.length classes
      in
      let flow_key ~adaptive (f : Instance.flow) q =
        ( (if adaptive then q else 0),
          inst.Instance.alive_tunnels.(q).(f.Instance.cls).(f.Instance.pair),
          Instance.demand_in inst f q )
      in
      let teavar_key q =
        ( inst.Instance.alive_tunnels.(q),
          Array.map (fun f -> Instance.demand_in inst f q) inst.Instance.flows )
      in
      valid teavar_key (Instance.scenario_classes inst ~key:teavar_key)
      && Array.for_all
           (fun f ->
             let st = flow_key ~adaptive:false f and ad = flow_key ~adaptive:true f in
             let ad_classes = Instance.scenario_classes inst ~key:ad in
             valid st (Instance.scenario_classes inst ~key:st)
             && valid ad ad_classes
             && Array.for_all
                  (fun (c : Instance.scenario_class) -> Array.length c.Instance.members = 1)
                  ad_classes)
           inst.Instance.flows)

(* Seeded synthetic Benders masters, built the way the master builds
   its variables: a flag (f, q) is a variable where flow f has demand,
   is connected in a non-perfect scenario q and some cut mentions the
   pair; every other flag keeps the previous plan's value, which is
   off on many connected pairs.  Probabilities, duals and LP values come
   from small pools, so repair keys tie (equal LP value and
   probability, LP values of exactly 0.5) and cut values tie. *)
type master = {
  prob : float array;
  active : bool array;
  coverage_target : float array;
  perfect : bool array;
  z_prev : bool array array;
  zv : int array array;
  cuts : Master_heuristic.cut list;
  nvars : int;
  hamming_limit : int option;
}

let synthetic_master prng =
  let pick a = Prng.choose prng a in
  let nf = 1 + Prng.int prng 8 and nq = 1 + Prng.int prng 10 in
  let prob = Array.init nq (fun _ -> pick [| 0.01; 0.02; 0.05; 0.1 |]) in
  let active = Array.init nf (fun _ -> Prng.bool prng 0.85) in
  let perfect = Array.init nq (fun _ -> Prng.bool prng 0.2) in
  let connected = Array.init nf (fun _ -> Array.init nq (fun _ -> Prng.bool prng 0.85)) in
  let z_prev =
    Array.init nf (fun f ->
        Array.init nq (fun q ->
            active.(f) && connected.(f).(q) && Prng.bool prng 0.7))
  in
  let entry () = (Prng.int prng nf, pick [| 0.; 1e-10; 0.05; 0.1; 0.2; 0.3; -0.05 |]) in
  (* a cut may copy the previous one with one dual raised by delta and
     its constant lowered by delta, give or take less than 1e-12: where
     that flag is on the two cuts tie, and the copy holds the heavier
     entry *)
  let cuts =
    List.fold_left
      (fun acc _ ->
        let c =
          match acc with
          | (prev : Master_heuristic.cut) :: _
            when Array.length prev.coef > 0 && Prng.bool prng 0.5 ->
              let delta = pick [| 0.3; 0.4 |] and coef = Array.copy prev.coef in
              let j = Prng.int prng (Array.length coef) in
              coef.(j) <- (fst coef.(j), snd coef.(j) +. delta);
              {
                prev with
                coef;
                const = prev.const -. delta +. pick [| 0.; 4e-13; -3e-13 |];
              }
          | _ ->
              {
                Master_heuristic.target = Prng.int prng nq;
                coef = Array.init (Prng.int prng (nf + 2)) (fun _ -> entry ());
                const = pick [| -0.3; -0.1; 0.; 0.1; 0.2 |];
              }
        in
        c :: acc)
      [] (List.init (Prng.int prng 13) Fun.id)
    |> List.rev
  in
  let mentioned = Array.make_matrix nf nq false in
  List.iter
    (fun (c : Master_heuristic.cut) ->
      Array.iter
        (fun (f, d) -> if Float.abs d > 1e-10 then mentioned.(f).(c.target) <- true)
        c.coef)
    cuts;
  (* variable 0 is the penalty *)
  let nvars = ref 1 in
  let zv =
    Array.init nf (fun f ->
        Array.init nq (fun q ->
            if active.(f) && connected.(f).(q) && (not perfect.(q)) && mentioned.(f).(q)
            then begin
              incr nvars;
              !nvars - 1
            end
            else -1))
  in
  let coverage_target =
    Array.init nf (fun f ->
        if not active.(f) then 0.
        else begin
          let mass = ref 0. in
          Array.iteri (fun q c -> if c then mass := !mass +. prob.(q)) connected.(f);
          (!mass *. pick [| 0.5; 0.8; 0.95; 1. |]) -. 1e-9
        end)
  in
  let hamming_limit = if Prng.bool prng 0.3 then Some (Prng.int prng 6) else None in
  { prob; active; coverage_target; perfect; z_prev; zv; cuts; nvars = !nvars; hamming_limit }

let draw_lp_x prng m =
  Array.init m.nvars (fun _ ->
      if Prng.bool prng 0.25 then Prng.float prng
      else Prng.choose prng [| 0.; 0.5; 1.; 0.3; 0.7; 0.5 |])

let same_candidate a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      Array.length a = Array.length b
      && Array.for_all2
           (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           a b
  | _ -> false

(* The incremental evaluator returns, call after call on one master (so
   its reused buffers are covered), exactly the bits of the evaluator
   it replaced. *)
let qcheck_master_heuristic_matches_reference =
  QCheck.Test.make ~name:"master heuristic bits = reference" ~count:2000
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun salt ->
      let prng = Prng.of_string (Printf.sprintf "mh-%d" salt) in
      let m = synthetic_master prng in
      let reference =
        Master_heuristic_ref.heuristic ~prob:m.prob ~active:m.active
          ~coverage_target:m.coverage_target ~perfect:m.perfect ~z_prev:m.z_prev
          ~zv:m.zv ~cuts:m.cuts ~penalty:0 ~nvars:m.nvars ~hamming_limit:m.hamming_limit
      in
      let incremental =
        Master_heuristic.create ~prob:m.prob ~active:m.active
          ~coverage_target:m.coverage_target ~perfect:m.perfect ~z_prev:m.z_prev
          ~zv:m.zv ~cuts:m.cuts ~penalty:0 ~nvars:m.nvars ~hamming_limit:m.hamming_limit
      in
      List.for_all
        (fun _ ->
          let lp_x = draw_lp_x prng m in
          let want = reference lp_x in
          same_candidate want (Master_heuristic.run incremental lp_x))
        (List.init 5 Fun.id))

let () =
  Alcotest.run "flexile_te_props"
    [
      ( "properties",
        List.map Fuzz.to_alcotest
          [
            qcheck_scheme_invariants;
            qcheck_maxmin_matches_minmax;
            qcheck_teavar_weaker_than_adaptive;
            qcheck_routing_block;
            qcheck_scenario_classes;
            qcheck_master_heuristic_matches_reference;
          ] );
      ( "regression",
        [
          Alcotest.test_case "starting point at the scenario optimum" `Quick
            test_starting_point_at_optimum;
        ] );
    ]
