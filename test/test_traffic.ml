(* Tests for traffic generation (gravity model, MLU scaling, class
   split) and the statistics toolkit (VaR/CVaR/percentiles). *)

module Gravity = Flexile_traffic.Gravity
module Stats = Flexile_util.Stats
module Prng = Flexile_util.Prng

let quick name f = Alcotest.test_case name `Quick f

let test_gravity_shape () =
  let graph = Flexile_net.Catalog.by_name "IBM" in
  let pairs = Flexile_net.Graph.pairs graph in
  let seed = Prng.of_string "gravity-test" in
  let d = Gravity.matrix ~seed ~graph ~pairs in
  Alcotest.(check int) "one demand per pair" (Array.length pairs) (Array.length d);
  Array.iter (fun x -> if x <= 0. then Alcotest.fail "non-positive demand") d;
  let mean = Array.fold_left ( +. ) 0. d /. float_of_int (Array.length d) in
  Alcotest.(check (float 1e-9)) "normalized mean" 1.0 mean;
  (* gravity: demand of (u,v) proportional to mass_u * mass_v, so the
     matrix must not be flat *)
  let mx = Array.fold_left Float.max 0. d and mn = Array.fold_left Float.min infinity d in
  if mx /. mn < 2. then Alcotest.fail "gravity matrix suspiciously flat"

let test_mlu_scaling () =
  let mlu d = 2. *. Array.fold_left Float.max 0. d in
  let d = Gravity.scale_to_mlu ~mlu ~target:0.6 [| 1.; 2.; 3. |] in
  Alcotest.(check (float 1e-9)) "scaled mlu" 0.6 (mlu d);
  Alcotest.(check (float 1e-9)) "proportions kept" (d.(0) *. 3.) d.(2)

let test_two_class_split () =
  let seed = Prng.of_string "split-test" in
  let d = Array.make 50 1. in
  let high, low = Gravity.split_two_class ~seed ~low_scale:2. d in
  Array.iteri
    (fun i h ->
      let l = low.(i) /. 2. in
      Alcotest.(check (float 1e-9)) "partition" 1.0 (h +. l);
      if h < 0.2 -. 1e-9 || h > 0.8 +. 1e-9 then
        Alcotest.fail "high fraction outside [0.2, 0.8]")
    high

let test_min_mlu_lp () =
  (* Triangle, demand 1 on A-B with two tunnels: direct (cap 1) and
     2-hop; optimum splits to equalize utilization at 0.5. *)
  let graph = Flexile_net.Catalog.triangle () in
  let t1 = Flexile_net.Tunnels.make graph ~pair:(0, 1) [| 0 |] in
  let t2 = Flexile_net.Tunnels.make graph ~pair:(0, 1) [| 1; 2 |] in
  let mlu =
    Flexile_te.Mlu.min_mlu ~graph ~tunnels:[| [| t1; t2 |] |] ~demands:[| 1. |]
  in
  Alcotest.(check (float 1e-6)) "balanced mlu" 0.5 mlu

(* ---------------- statistics ---------------- *)

let test_percentile () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "p0 -> min" 1. (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p1 -> max" 5. (Stats.percentile xs 1.0);
  Alcotest.(check (float 1e-9)) "p80" 4. (Stats.percentile xs 0.8)

let test_weighted_var () =
  (* the paper's §5 example: losses 0, 5, 10 with probs .9 .09 .01:
     VaR90 = 0, CVaR90 = 5*0.09 + 10*0.01 over 0.1 = 1.45 / 0.1 *)
  let samples = [| (0., 0.9); (0.05, 0.09); (0.10, 0.01) |] in
  Alcotest.(check (float 1e-9)) "VaR90" 0. (Stats.weighted_var samples ~beta:0.9);
  (* the paper's §5 text reports the unnormalized tail expectation
     (1.45%); the standard CVaR normalizes by the tail mass 1-beta,
     giving 0.055 *)
  Alcotest.(check (float 1e-9)) "CVaR90" 0.055
    (Stats.weighted_cvar samples ~beta:0.9);
  Alcotest.(check (float 1e-9)) "VaR99" 0.05
    (Stats.weighted_var samples ~beta:0.99);
  Alcotest.(check (float 1e-9)) "VaR100ish" 0.10
    (Stats.weighted_var samples ~beta:0.9999)

let test_weighted_var_missing_mass () =
  (* observed mass 0.95 < beta 0.99: unobserved scenarios are charged
     the worst loss -> VaR = 1 *)
  let samples = [| (0., 0.95) |] in
  Alcotest.(check (float 1e-9)) "missing mass worst-cased" 1.
    (Stats.weighted_var samples ~beta:0.99);
  Alcotest.(check (float 1e-9)) "covered beta fine" 0.
    (Stats.weighted_var samples ~beta:0.9)

let test_cvar_missing_mass () =
  (* tail 0.1; observed mass 0.95 at loss 0 -> tail = 0.05 missing at
     loss 1 + 0.05 observed at 0 -> CVaR = 0.5 *)
  let samples = [| (0., 0.95) |] in
  Alcotest.(check (float 1e-9)) "cvar with missing mass" 0.5
    (Stats.weighted_cvar samples ~beta:0.9)

let test_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = [| 2.; 4.; 6.; 8. |] in
  Alcotest.(check (float 1e-9)) "perfect correlation" 1. (Stats.pearson xs ys);
  let zs = [| 8.; 6.; 4.; 2. |] in
  Alcotest.(check (float 1e-9)) "anti" (-1.) (Stats.pearson xs zs)

let qcheck_var_monotone =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12)
        (pair (map (fun i -> float_of_int i /. 10.) (int_range 0 10))
           (map (fun i -> float_of_int i /. 40.) (int_range 1 10))))
  in
  QCheck.Test.make ~name:"weighted VaR is monotone in beta" ~count:200
    (QCheck.make gen) (fun samples ->
      let total = List.fold_left (fun a (_, p) -> a +. p) 0. samples in
      if total > 1. then true
      else begin
        let s = Array.of_list samples in
        let v1 = Stats.weighted_var s ~beta:0.5 in
        let v2 = Stats.weighted_var s ~beta:0.8 in
        let v3 = Stats.weighted_var s ~beta:0.95 in
        v1 <= v2 +. 1e-12 && v2 <= v3 +. 1e-12
      end)

let qcheck_cvar_dominates_var =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 12)
        (pair (map (fun i -> float_of_int i /. 10.) (int_range 0 10))
           (map (fun i -> float_of_int i /. 40.) (int_range 1 10))))
  in
  QCheck.Test.make ~name:"CVaR >= VaR (Teavar's overestimate)" ~count:200
    (QCheck.make gen) (fun samples ->
      let total = List.fold_left (fun a (_, p) -> a +. p) 0. samples in
      if total > 1. then true
      else begin
        let s = Array.of_list samples in
        Stats.weighted_cvar s ~beta:0.9 >= Stats.weighted_var s ~beta:0.9 -. 1e-9
      end)

let () =
  Alcotest.run "flexile_traffic"
    [
      ( "traffic",
        [
          quick "gravity shape" test_gravity_shape;
          quick "mlu scaling" test_mlu_scaling;
          quick "two-class split" test_two_class_split;
          quick "min-mlu lp" test_min_mlu_lp;
        ] );
      ( "stats",
        [
          quick "percentile" test_percentile;
          quick "weighted VaR (paper example)" test_weighted_var;
          quick "missing mass VaR" test_weighted_var_missing_mass;
          quick "missing mass CVaR" test_cvar_missing_mass;
          quick "pearson" test_pearson;
        ] );
      ( "properties",
        List.map Fuzz.to_alcotest
          [ qcheck_var_monotone; qcheck_cvar_dominates_var ] );
    ]
