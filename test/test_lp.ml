(* Tests for the LP/MIP substrate: simplex correctness on known
   problems, duality certificates, warm restarts, branch-and-bound, and
   randomized property tests against a brute-force vertex enumerator. *)

open Flexile_lp

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let check_float ~msg expected actual =
  if not (feq expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let solve_status = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iter-limit"

let expect_optimal sol =
  if sol.Simplex.status <> Simplex.Optimal then
    Alcotest.failf "expected optimal, got %s" (solve_status sol.Simplex.status)

(* ---------------- hand-built LPs ---------------- *)

let test_basic_lp () =
  (* max x + 2y s.t. x + y <= 4; x <= 3; y <= 2; x,y >= 0
     -> min -(x+2y); optimum x=2,y=2, obj=-6 *)
  let m = Lp_model.create ~name:"basic" () in
  let x = Lp_model.add_var m ~obj:(-1.) () in
  let y = Lp_model.add_var m ~obj:(-2.) () in
  let _ = Lp_model.add_row m Lp_model.Le 4. [ (x, 1.); (y, 1.) ] in
  let _ = Lp_model.add_row m Lp_model.Le 3. [ (x, 1.) ] in
  let _ = Lp_model.add_row m Lp_model.Le 2. [ (y, 1.) ] in
  let sol = Simplex.solve m in
  expect_optimal sol;
  check_float ~msg:"objective" (-6.) sol.Simplex.obj;
  check_float ~msg:"x" 2. sol.Simplex.x.(x);
  check_float ~msg:"y" 2. sol.Simplex.x.(y)

let test_equality_and_ge () =
  (* min x + y s.t. x + y = 3; x - y >= 1; x,y >= 0 -> x=2,y=1 obj=3 *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:1. () in
  let y = Lp_model.add_var m ~obj:1. () in
  let _ = Lp_model.add_row m Lp_model.Eq 3. [ (x, 1.); (y, 1.) ] in
  let _ = Lp_model.add_row m Lp_model.Ge 1. [ (x, 1.); (y, -1.) ] in
  let sol = Simplex.solve m in
  expect_optimal sol;
  check_float ~msg:"objective" 3. sol.Simplex.obj

let test_bounded_vars () =
  (* min -x - y, x in [1, 2], y in [0, 5], x + y <= 4 -> x=2,y=2 *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~lb:1. ~ub:2. ~obj:(-1.) () in
  let y = Lp_model.add_var m ~lb:0. ~ub:5. ~obj:(-1.) () in
  let _ = Lp_model.add_row m Lp_model.Le 4. [ (x, 1.); (y, 1.) ] in
  let sol = Simplex.solve m in
  expect_optimal sol;
  check_float ~msg:"objective" (-4.) sol.Simplex.obj;
  check_float ~msg:"x at ub" 2. sol.Simplex.x.(x)

let test_free_variable () =
  (* min y s.t. y >= x - 2; y >= -x; x free -> x=1, y=-1 *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~lb:neg_infinity ~ub:infinity () in
  let y = Lp_model.add_var m ~lb:neg_infinity ~ub:infinity ~obj:1. () in
  let _ = Lp_model.add_row m Lp_model.Ge (-2.) [ (y, 1.); (x, -1.) ] in
  let _ = Lp_model.add_row m Lp_model.Ge 0. [ (y, 1.); (x, 1.) ] in
  let sol = Simplex.solve m in
  expect_optimal sol;
  check_float ~msg:"objective" (-1.) sol.Simplex.obj

let test_infeasible () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:1. () in
  let _ = Lp_model.add_row m Lp_model.Ge 3. [ (x, 1.) ] in
  let _ = Lp_model.add_row m Lp_model.Le 1. [ (x, 1.) ] in
  let sol = Simplex.solve m in
  Alcotest.(check string)
    "status" "infeasible"
    (solve_status sol.Simplex.status)

let test_unbounded () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-1.) () in
  let y = Lp_model.add_var m () in
  let _ = Lp_model.add_row m Lp_model.Ge 0. [ (x, 1.); (y, -1.) ] in
  let sol = Simplex.solve m in
  Alcotest.(check string) "status" "unbounded" (solve_status sol.Simplex.status)

let test_degenerate () =
  (* Classic degenerate LP; checks anti-cycling. *)
  let m = Lp_model.create () in
  let x1 = Lp_model.add_var m ~obj:(-0.75) () in
  let x2 = Lp_model.add_var m ~obj:150. () in
  let x3 = Lp_model.add_var m ~obj:(-0.02) () in
  let x4 = Lp_model.add_var m ~obj:6. () in
  let _ =
    Lp_model.add_row m Lp_model.Le 0.
      [ (x1, 0.25); (x2, -60.); (x3, -0.04); (x4, 9.) ]
  in
  let _ =
    Lp_model.add_row m Lp_model.Le 0.
      [ (x1, 0.5); (x2, -90.); (x3, -0.02); (x4, 3.) ]
  in
  let _ = Lp_model.add_row m Lp_model.Le 1. [ (x3, 1.) ] in
  let sol = Simplex.solve m in
  expect_optimal sol;
  check_float ~msg:"objective (Beale)" (-0.05) sol.Simplex.obj

let test_duality_certificate () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-3.) ~ub:10. () in
  let y = Lp_model.add_var m ~obj:(-5.) ~ub:10. () in
  let r1 = Lp_model.add_row m Lp_model.Le 4. [ (x, 1.) ] in
  let r2 = Lp_model.add_row m Lp_model.Le 12. [ (y, 2.) ] in
  let r3 = Lp_model.add_row m Lp_model.Le 18. [ (x, 3.); (y, 2.) ] in
  ignore (r1, r2, r3);
  let sol = Simplex.solve m in
  expect_optimal sol;
  check_float ~msg:"objective" (-36.) sol.Simplex.obj;
  (* strong duality at the original rhs *)
  let rhs = [| 4.; 12.; 18. |] in
  check_float ~msg:"dual bound equals obj" sol.Simplex.obj
    (Simplex.dual_bound sol ~rhs);
  (* weak duality for perturbed rhs: bound <= true optimum *)
  let rhs' = [| 4.; 10.; 15. |] in
  let m2 = Lp_model.create () in
  let x2 = Lp_model.add_var m2 ~obj:(-3.) ~ub:10. () in
  let y2 = Lp_model.add_var m2 ~obj:(-5.) ~ub:10. () in
  let _ = Lp_model.add_row m2 Lp_model.Le 4. [ (x2, 1.) ] in
  let _ = Lp_model.add_row m2 Lp_model.Le 10. [ (y2, 2.) ] in
  let _ = Lp_model.add_row m2 Lp_model.Le 15. [ (x2, 3.); (y2, 2.) ] in
  let sol2 = Simplex.solve m2 in
  expect_optimal sol2;
  if Simplex.dual_bound sol ~rhs:rhs' > sol2.Simplex.obj +. 1e-6 then
    Alcotest.failf "dual bound %.9g exceeds optimum %.9g"
      (Simplex.dual_bound sol ~rhs:rhs')
      sol2.Simplex.obj

let test_warm_restart () =
  (* Solve, then change rhs and re-solve warm; must match a cold solve. *)
  let build rhs1 rhs2 =
    let m = Lp_model.create () in
    let x = Lp_model.add_var m ~obj:(-2.) () in
    let y = Lp_model.add_var m ~obj:(-3.) () in
    let _ = Lp_model.add_row m Lp_model.Le rhs1 [ (x, 1.); (y, 2.) ] in
    let _ = Lp_model.add_row m Lp_model.Le rhs2 [ (x, 3.); (y, 1.) ] in
    m
  in
  let m = build 10. 15. in
  let st = Simplex.make m in
  let sol1 = Simplex.solve_warm st in
  expect_optimal sol1;
  let cold1 = Simplex.solve (build 10. 15.) in
  check_float ~msg:"warm=cold initial" cold1.Simplex.obj sol1.Simplex.obj;
  (* tighten rhs *)
  Simplex.set_rhs st 0 6.;
  Simplex.set_rhs st 1 9.;
  let sol2 = Simplex.solve_warm st in
  expect_optimal sol2;
  let cold2 = Simplex.solve (build 6. 9.) in
  check_float ~msg:"warm=cold tightened" cold2.Simplex.obj sol2.Simplex.obj;
  (* loosen rhs *)
  Simplex.set_rhs st 0 20.;
  Simplex.set_rhs st 1 30.;
  let sol3 = Simplex.solve_warm st in
  expect_optimal sol3;
  let cold3 = Simplex.solve (build 20. 30.) in
  check_float ~msg:"warm=cold loosened" cold3.Simplex.obj sol3.Simplex.obj

let test_warm_restart_infeasible () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~ub:5. ~obj:1. () in
  let _ = Lp_model.add_row m Lp_model.Ge 2. [ (x, 1.) ] in
  let st = Simplex.make m in
  let sol1 = Simplex.solve_warm st in
  expect_optimal sol1;
  check_float ~msg:"initial obj" 2. sol1.Simplex.obj;
  Simplex.set_rhs st 0 7.;
  let sol2 = Simplex.solve_warm st in
  Alcotest.(check string)
    "infeasible rhs" "infeasible"
    (solve_status sol2.Simplex.status)

(* A restart whose dual simplex runs out of iterations falls back to a
   cold solve; [simplex.iterations] keeps the abandoned dual pivots, the
   solution reports the cold solve's own. *)
let test_fallback_pivots_counted () =
  let module Trace = Flexile_util.Trace in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-2.) () in
  let y = Lp_model.add_var m ~obj:(-3.) () in
  let _ = Lp_model.add_row m Lp_model.Le 10. [ (x, 1.); (y, 2.) ] in
  let _ = Lp_model.add_row m Lp_model.Le 15. [ (x, 3.); (y, 1.) ] in
  let st = Simplex.make m in
  expect_optimal (Simplex.solve_warm st);
  (* the optimal basis {x, y} now puts x at -1.2: one dual pivot, then
     the limit *)
  Simplex.set_rhs st 1 2.;
  let names = [ "simplex.iterations"; "simplex.warm_fallbacks"; "simplex.cold_solves" ] in
  let before = List.map Trace.value_by_name names in
  let sol = Simplex.solve_warm ~iter_limit:1 st in
  Alcotest.(check string) "status" "iter-limit" (solve_status sol.Simplex.status);
  match List.map2 (fun n b -> Trace.value_by_name n - b) names before with
  | [ iterations; fallbacks; colds ] ->
      Alcotest.(check int) "fell back" 1 fallbacks;
      Alcotest.(check int) "cold solves" 1 colds;
      Alcotest.(check int) "dual and cold pivots" (1 + sol.Simplex.iterations) iterations
  | _ -> assert false

let test_extend_rows () =
  (* cutting-plane warm start: solve, add rows, extend, re-solve; must
     match a cold solve of the extended model *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-1.) ~ub:10. () in
  let y = Lp_model.add_var m ~obj:(-1.) ~ub:10. () in
  let _ = Lp_model.add_row m Lp_model.Le 12. [ (x, 1.); (y, 1.) ] in
  let st = Simplex.make m in
  let sol1 = Simplex.solve_warm st in
  expect_optimal sol1;
  check_float ~msg:"initial" (-12.) sol1.Simplex.obj;
  let _ = Lp_model.add_row m Lp_model.Le 4. [ (x, 1.) ] in
  let _ = Lp_model.add_row m Lp_model.Le 9. [ (x, 1.); (y, 2.) ] in
  let st2 = Simplex.extend st m in
  let sol2 = Simplex.solve_warm st2 in
  expect_optimal sol2;
  let cold = Simplex.solve m in
  check_float ~msg:"extended warm = cold" cold.Simplex.obj sol2.Simplex.obj;
  if Lp_model.max_violation m sol2.Simplex.x > 1e-6 then
    Alcotest.fail "warm-extended solution infeasible";
  (* a second extension round *)
  let _ = Lp_model.add_row m Lp_model.Ge 2. [ (y, 1.) ] in
  let st3 = Simplex.extend st2 m in
  let sol3 = Simplex.solve_warm st3 in
  expect_optimal sol3;
  let cold3 = Simplex.solve m in
  check_float ~msg:"second extension" cold3.Simplex.obj sol3.Simplex.obj

(* ---------------- lazy row generation ---------------- *)

let test_row_gen () =
  (* minimize -x - y over the polytope {x+y <= 4, x <= 3, y <= 3},
     with the first constraint supplied lazily: the generator reports
     it only when the current point violates it *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-1.) ~ub:3. () in
  let y = Lp_model.add_var m ~obj:(-1.) ~ub:3. () in
  let violated sol =
    if sol.(x) +. sol.(y) > 4. +. 1e-7 then
      [
        {
          Row_gen.sense = Lp_model.Le;
          rhs = 4.;
          coeffs = [ (x, 1.); (y, 1.) ];
        };
      ]
    else []
  in
  let { Row_gen.solution = sol; rounds; converged } = Row_gen.solve ~violated m in
  expect_optimal sol;
  if not converged then Alcotest.fail "row generation did not converge";
  check_float ~msg:"objective" (-4.) sol.Simplex.obj;
  if rounds < 2 then Alcotest.fail "expected at least one generation round";
  (* the generated row is now a permanent part of the model *)
  Alcotest.(check int) "row added" 1 (Lp_model.nrows m)

(* A run cut short by [max_rounds] says so: the generator below never
   runs out of violated rows, so one round ends with the last
   relaxation optimal but not converged. *)
let test_row_gen_cut_short () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-1.) ~ub:3. () in
  let violated sol =
    [ { Row_gen.sense = Lp_model.Le; rhs = sol.(x) -. 1.; coeffs = [ (x, 1.) ] } ]
  in
  let r = Row_gen.solve ~max_rounds:1 ~violated m in
  expect_optimal r.Row_gen.solution;
  Alcotest.(check int) "rounds" 1 r.Row_gen.rounds;
  Alcotest.(check bool) "converged" false r.Row_gen.converged;
  Alcotest.(check int) "no row added past the budget" 0 (Lp_model.nrows m)

(* ---------------- MIP ---------------- *)

let test_mip_knapsack () =
  (* max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
     Optimum: a=0, b=1, c=1 -> 20. *)
  let m = Lp_model.create () in
  let a = Lp_model.add_var m ~ub:1. ~obj:(-10.) () in
  let b = Lp_model.add_var m ~ub:1. ~obj:(-13.) () in
  let c = Lp_model.add_var m ~ub:1. ~obj:(-7.) () in
  let _ = Lp_model.add_row m Lp_model.Le 6. [ (a, 3.); (b, 4.); (c, 2.) ] in
  let r = Mip.solve ~binaries:[| a; b; c |] m in
  if r.Mip.status <> Mip.Optimal then Alcotest.fail "knapsack not optimal";
  check_float ~msg:"objective" (-20.) r.Mip.obj;
  check_float ~msg:"b" 1. r.Mip.x.(b);
  check_float ~msg:"c" 1. r.Mip.x.(c)

let test_mip_infeasible () =
  let m = Lp_model.create () in
  let a = Lp_model.add_var m ~ub:1. () in
  let b = Lp_model.add_var m ~ub:1. () in
  let _ = Lp_model.add_row m Lp_model.Ge 3. [ (a, 1.); (b, 1.) ] in
  let r = Mip.solve ~binaries:[| a; b |] m in
  if r.Mip.status <> Mip.Infeasible then Alcotest.fail "expected infeasible"

(* min -y s.t. y >= x, x binary: the relaxation is unbounded, so the
   root node is dropped unbounded.  That is a limit with no incumbent
   and no finite bound, not a proof of infeasibility. *)
let test_mip_unbounded_relaxation () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~ub:1. () in
  let y = Lp_model.add_var m ~obj:(-1.) () in
  let _ = Lp_model.add_row m Lp_model.Ge 0. [ (y, 1.); (x, -1.) ] in
  let module Trace = Flexile_util.Trace in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let names = [ "mip.nodes_dropped"; "mip.stop_exhausted" ] in
  let before = List.map Trace.value_by_name names in
  let r = Mip.solve ~binaries:[| x |] m in
  Alcotest.(check bool) "limit, not infeasible" true (r.Mip.status = Mip.Limit);
  Alcotest.(check int) "one node" 1 r.Mip.nodes;
  Alcotest.(check bool) "the root's bound stays in the frontier" true
    (r.Mip.bound = neg_infinity);
  (* the tree ran out of nodes, but only because its one node was
     dropped: the counter tells the two apart *)
  Alcotest.(check (list int)) "one node dropped, tree exhausted" [ 1; 1 ]
    (List.map2 ( - ) (List.map Trace.value_by_name names) before)

let test_mip_mixed () =
  (* min y - x s.t. y >= 1.3 z, x <= 2 + z, x <= 3, z binary, y >= 0.
     z=1: obj >= 1.3 - 3 = -1.7 ; z=0: obj >= 0 - 2 = -2 -> optimum -2. *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-1.) () in
  let y = Lp_model.add_var m ~obj:1. () in
  let z = Lp_model.add_var m ~ub:1. () in
  let _ = Lp_model.add_row m Lp_model.Ge 0. [ (y, 1.); (z, -1.3) ] in
  let _ = Lp_model.add_row m Lp_model.Le 2. [ (x, 1.); (z, -1.) ] in
  let _ = Lp_model.add_row m Lp_model.Le 3. [ (x, 1.) ] in
  let r = Mip.solve ~binaries:[| z |] m in
  if r.Mip.status <> Mip.Optimal then Alcotest.fail "not optimal";
  check_float ~msg:"objective" (-2.) r.Mip.obj

(* The mip.* trace counters: nodes solved, nodes left open and exactly
   one stop reason per search. *)
let test_mip_stop_counters () =
  let module Trace = Flexile_util.Trace in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let names =
    [
      "mip.nodes"; "mip.open_nodes_at_stop"; "mip.stop_exhausted";
      "mip.stop_node_limit";
    ]
  in
  let counts () = List.map Trace.value_by_name names in
  let delta before = List.map2 ( - ) (counts ()) before in
  (* a 12-item knapsack whose relaxation is fractional: four nodes
     cannot finish the search *)
  let m = Lp_model.create () in
  let items =
    Array.init 12 (fun i ->
        Lp_model.add_var m ~ub:1. ~obj:(-.float_of_int (10 + (7 * i mod 11))) ())
  in
  let _ =
    Lp_model.add_row m Lp_model.Le 17.5
      (Array.to_list (Array.mapi (fun i v -> (v, float_of_int (3 + (i mod 4)))) items))
  in
  let before = counts () in
  let r = Mip.solve ~node_limit:4 ~binaries:items m in
  (match delta before with
  | [ nodes; open_; exhausted; node_limit ] ->
      Alcotest.(check int) "nodes solved" 4 nodes;
      Alcotest.(check int) "result agrees" r.Mip.nodes nodes;
      Alcotest.(check bool) "nodes left open" true (open_ >= 1);
      Alcotest.(check (list int)) "stopped by the node limit" [ 0; 1 ]
        [ exhausted; node_limit ]
  | _ -> assert false);
  Alcotest.(check bool) "not proven optimal" true (r.Mip.status <> Mip.Optimal);
  let before = counts () in
  let r = Mip.solve ~binaries:items m in
  Alcotest.(check bool) "unlimited search is optimal" true
    (r.Mip.status = Mip.Optimal);
  Alcotest.(check bool) "and needs more than four nodes" true (r.Mip.nodes > 4);
  Alcotest.(check (list int)) "exhausted: nodes, none open, one stop"
    [ r.Mip.nodes; 0; 1; 0 ] (delta before)

let test_mip_heuristic_used () =
  (* A model where the rounding heuristic immediately gives the optimum;
     check it is accepted (status optimal with tiny node count). *)
  let m = Lp_model.create () in
  let vars = Array.init 6 (fun _ -> Lp_model.add_var m ~ub:1. ~obj:(-1.) ()) in
  let coeffs = Array.to_list (Array.map (fun v -> (v, 1.)) vars) in
  let _ = Lp_model.add_row m Lp_model.Le 3.5 coeffs in
  let heuristic lp_x =
    let cand = Array.map (fun v -> if lp_x.(v) >= 0.99 then 1. else 0.) (Array.init (Lp_model.nvars m) (fun i -> i)) in
    (* keep only 3 ones *)
    let count = ref 0 in
    Array.iteri
      (fun i v ->
        if v = 1. then begin
          incr count;
          if !count > 3 then cand.(i) <- 0.
        end)
      cand;
    Some cand
  in
  let r = Mip.solve ~heuristic ~binaries:vars m in
  if r.Mip.status <> Mip.Optimal then Alcotest.fail "not optimal";
  check_float ~msg:"objective" (-3.) r.Mip.obj

(* ---------------- property tests ---------------- *)

(* Brute-force reference: for 2-variable LPs with Le rows and box
   bounds, enumerate candidate vertices (intersections of all pairs of
   tight constraints) and take the best feasible one. *)
let brute_force_2d ~lbx ~ubx ~lby ~uby ~rows ~cx ~cy =
  (* lines: a x + b y = c from rows and bounds *)
  let lines =
    (1., 0., lbx) :: (1., 0., ubx) :: (0., 1., lby) :: (0., 1., uby)
    :: List.map (fun (a, b, c) -> (a, b, c)) rows
  in
  let feasible (x, y) =
    x >= lbx -. 1e-9 && x <= ubx +. 1e-9 && y >= lby -. 1e-9
    && y <= uby +. 1e-9
    && List.for_all (fun (a, b, c) -> (a *. x) +. (b *. y) <= c +. 1e-9) rows
  in
  let best = ref None in
  let consider p =
    if feasible p then begin
      let x, y = p in
      let v = (cx *. x) +. (cy *. y) in
      match !best with
      | Some b when b <= v -> ()
      | _ -> best := Some v
    end
  in
  List.iteri
    (fun i (a1, b1, c1) ->
      List.iteri
        (fun j (a2, b2, c2) ->
          if i < j then begin
            let det = (a1 *. b2) -. (a2 *. b1) in
            if Float.abs det > 1e-9 then begin
              let x = ((c1 *. b2) -. (c2 *. b1)) /. det in
              let y = ((a1 *. c2) -. (a2 *. c1)) /. det in
              consider (x, y)
            end
          end)
        lines)
    lines;
  !best

let qcheck_2d_lp =
  let gen =
    QCheck.Gen.(
      let coef = map (fun i -> float_of_int i /. 4.) (int_range (-20) 20) in
      let pos = map (fun i -> float_of_int i /. 2.) (int_range 1 16) in
      let row = triple coef coef pos in
      quad coef coef (list_size (int_range 1 6) row) pos)
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"simplex matches 2d brute force" ~count:300 arb
    (fun (cx, cy, rows, ub) ->
      let m = Lp_model.create () in
      let x = Lp_model.add_var m ~ub ~obj:cx () in
      let y = Lp_model.add_var m ~ub ~obj:cy () in
      List.iter
        (fun (a, b, c) ->
          ignore (Lp_model.add_row m Lp_model.Le c [ (x, a); (y, b) ]))
        rows;
      let sol = Simplex.solve m in
      let reference =
        brute_force_2d ~lbx:0. ~ubx:ub ~lby:0. ~uby:ub
          ~rows:(List.map (fun (a, b, c) -> (a, b, c)) rows)
          ~cx ~cy
      in
      match (sol.Simplex.status, reference) with
      | Simplex.Optimal, Some v -> feq ~eps:1e-5 v sol.Simplex.obj
      | Simplex.Optimal, None -> false
      | Simplex.Infeasible, None -> true
      | Simplex.Infeasible, Some _ -> false
      | _ -> false)

let qcheck_feasibility =
  (* Random larger LPs: if the solver reports optimal, the returned
     point must satisfy the model. *)
  let gen =
    QCheck.Gen.(
      let nv = int_range 2 8 and nr = int_range 1 8 in
      let coef = map (fun i -> float_of_int i /. 3.) (int_range (-9) 9) in
      pair (pair nv nr) (pair (list_size (return 80) coef) (list_size (return 10) coef)))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"optimal solutions are feasible" ~count:200 arb
    (fun ((nv, nr), (coefs, objs)) ->
      let coefs = Array.of_list coefs and objs = Array.of_list objs in
      let m = Lp_model.create () in
      let vars =
        Array.init nv (fun j ->
            Lp_model.add_var m ~ub:5. ~obj:objs.(j mod Array.length objs) ())
      in
      let k = ref 0 in
      for _ = 1 to nr do
        let entries =
          Array.to_list
            (Array.map
               (fun v ->
                 let c = coefs.(!k mod Array.length coefs) in
                 incr k;
                 (v, c))
               vars)
        in
        ignore (Lp_model.add_row m Lp_model.Le 4. entries)
      done;
      let sol = Simplex.solve m in
      match sol.Simplex.status with
      | Simplex.Optimal ->
          Lp_model.max_violation m sol.Simplex.x <= 1e-5
          && feq ~eps:1e-5
               (Lp_model.objective_value m sol.Simplex.x)
               sol.Simplex.obj
          && feq ~eps:1e-5 sol.Simplex.obj
               (Simplex.dual_bound sol
                  ~rhs:(Array.init (Lp_model.nrows m) (Lp_model.rhs m)))
      | _ -> true)

let qcheck_warm_rhs_sequences =
  (* sequences of RHS changes resolved warm must match cold solves —
     the regression that once broke Flexile's subproblem sweep *)
  let gen = QCheck.Gen.(pair (int_range 2 7) (int_range 1 6)) in
  QCheck.Test.make ~name:"dual simplex warm rhs sequences" ~count:60
    (QCheck.make gen) (fun (nv, nr) ->
      let prng =
        Flexile_util.Prng.of_string (Printf.sprintf "qc-warm-%d-%d" nv nr)
      in
      let m = Lp_model.create () in
      let vars =
        Array.init nv (fun _ ->
            Lp_model.add_var m
              ~ub:(if Flexile_util.Prng.bool prng 0.5 then 3. else infinity)
              ~obj:(Flexile_util.Prng.uniform prng (-2.) 2.)
              ())
      in
      for _ = 1 to nr do
        let coeffs =
          Array.to_list
            (Array.map
               (fun v -> (v, float_of_int (Flexile_util.Prng.int prng 7 - 3)))
               vars)
        in
        let sense =
          if Flexile_util.Prng.bool prng 0.7 then Lp_model.Le
          else if Flexile_util.Prng.bool prng 0.5 then Lp_model.Ge
          else Lp_model.Eq
        in
        ignore
          (Lp_model.add_row m sense (Flexile_util.Prng.uniform prng (-2.) 6.)
             coeffs)
      done;
      let st = Simplex.make m in
      let _ = Simplex.solve_warm st in
      let ok = ref true in
      for _ = 1 to 5 do
        if !ok then begin
          let rhs =
            Array.init (Lp_model.nrows m) (fun _ ->
                Flexile_util.Prng.uniform prng (-2.) 6.)
          in
          Array.iteri (Simplex.set_rhs st) rhs;
          let warm = Simplex.solve_warm st in
          let cold = Simplex.solve (Lp_walk.with_rhs m rhs) in
          ok :=
            (match (warm.Simplex.status, cold.Simplex.status) with
            | Simplex.Optimal, Simplex.Optimal ->
                Float.abs (warm.Simplex.obj -. cold.Simplex.obj)
                <= 1e-5 *. (1. +. Float.abs cold.Simplex.obj)
            | a, b -> a = b)
        end
      done;
      !ok)

let qcheck_extend_rows =
  (* appending random rows and re-solving warm must match cold solves *)
  let gen = QCheck.Gen.(pair (int_range 2 6) (int_range 1 4)) in
  QCheck.Test.make ~name:"row extension matches cold solves" ~count:60
    (QCheck.make gen) (fun (nv, rounds) ->
      let prng =
        Flexile_util.Prng.of_string (Printf.sprintf "qc-extend-%d-%d" nv rounds)
      in
      let m = Lp_model.create () in
      let vars =
        Array.init nv (fun _ ->
            Lp_model.add_var m ~ub:5.
              ~obj:(Flexile_util.Prng.uniform prng (-2.) 1.)
              ())
      in
      ignore
        (Lp_model.add_row m Lp_model.Le 8.
           (Array.to_list (Array.map (fun v -> (v, 1.)) vars)));
      let st = ref (Simplex.make m) in
      let _ = Simplex.solve_warm !st in
      let ok = ref true in
      for _ = 1 to rounds do
        if !ok then begin
          let coeffs =
            Array.to_list
              (Array.map
                 (fun v -> (v, float_of_int (Flexile_util.Prng.int prng 5 - 2)))
                 vars)
          in
          let sense =
            if Flexile_util.Prng.bool prng 0.7 then Lp_model.Le else Lp_model.Ge
          in
          ignore
            (Lp_model.add_row m sense (Flexile_util.Prng.uniform prng (-1.) 5.)
               coeffs);
          st := Simplex.extend !st m;
          let warm = Simplex.solve_warm !st in
          let cold = Simplex.solve m in
          ok :=
            (match (warm.Simplex.status, cold.Simplex.status) with
            | Simplex.Optimal, Simplex.Optimal ->
                Float.abs (warm.Simplex.obj -. cold.Simplex.obj)
                <= 1e-5 *. (1. +. Float.abs cold.Simplex.obj)
            | a, b -> a = b)
        end
      done;
      !ok)

let qcheck_mip_vs_enum =
  (* Small random binary MIPs: branch-and-bound must match exhaustive
     enumeration. *)
  let gen =
    QCheck.Gen.(
      let coef = map (fun i -> float_of_int i /. 2.) (int_range (-8) 8) in
      pair (int_range 2 6) (pair (list_size (return 36) coef) (list_size (return 6) coef)))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"mip matches exhaustive enumeration" ~count:120 arb
    (fun (nv, (coefs, objs)) ->
      let coefs = Array.of_list coefs and objs = Array.of_list objs in
      let m = Lp_model.create () in
      let vars =
        Array.init nv (fun j ->
            Lp_model.add_var m ~ub:1. ~obj:objs.(j mod Array.length objs) ())
      in
      let k = ref 0 in
      for _ = 1 to 3 do
        let entries =
          Array.to_list
            (Array.map
               (fun v ->
                 let c = coefs.(!k mod Array.length coefs) in
                 incr k;
                 (v, c))
               vars)
        in
        ignore (Lp_model.add_row m Lp_model.Le 2. entries)
      done;
      let r = Mip.solve ~binaries:vars m in
      (* enumerate *)
      let best = ref infinity in
      let x = Array.make nv 0. in
      let rec enum j =
        if j = nv then begin
          if Lp_model.max_violation m x <= 1e-9 then
            best := Float.min !best (Lp_model.objective_value m x)
        end
        else begin
          x.(j) <- 0.;
          enum (j + 1);
          x.(j) <- 1.;
          enum (j + 1);
          x.(j) <- 0.
        end
      in
      enum 0;
      match r.Mip.status with
      | Mip.Optimal -> feq ~eps:1e-6 !best r.Mip.obj
      | Mip.Infeasible -> !best = infinity
      | _ -> false)

(* ---------------- pivot pin ----------------

   Exact iteration counts and objective bits, recorded before the
   pricing scores, the dual leaving-row list and the per-search solver
   state went in: every one of those is meant to choose the same pivot
   as the full scans it replaced, so a stale score or a missed row
   shows here as a changed count or a moved bit. *)

module Prng = Flexile_util.Prng

let pin_line (sol : Simplex.solution) =
  Printf.sprintf "%s %d %Lx" (solve_status sol.Simplex.status)
    sol.Simplex.iterations (Int64.bits_of_float sol.Simplex.obj)

let check_pin name expected actual =
  if actual <> expected then
    Alcotest.failf "%s moved; now:\n%s" name
      (String.concat "\n" (List.map (Printf.sprintf "%S;") actual))

(* Sparse random LP with mixed bounds and senses; [nv + 2 nr] above
   256 columns spreads partial pricing over several sections. *)
let pin_lp prng ~nv ~nr =
  let m = Lp_model.create () in
  let vars =
    Array.init nv (fun _ ->
        let lb, ub =
          match Prng.int prng 5 with
          | 0 -> (0., infinity)
          | 1 -> (-1., 3.)
          | 2 when Prng.bool prng 0.2 -> (neg_infinity, infinity)
          | _ -> (0., float_of_int (1 + Prng.int prng 6))
        in
        Lp_model.add_var m ~lb ~ub ~obj:(Prng.uniform prng (-2.) 2.) ())
  in
  for _ = 1 to nr do
    let coeffs =
      Array.fold_left
        (fun acc v ->
          if Prng.bool prng 0.25 then
            (v, float_of_int (Prng.int prng 3 + 1) *. if Prng.bool prng 0.5 then 1. else -1.)
            :: acc
          else acc)
        [] vars
    in
    let sense =
      if Prng.bool prng 0.6 then Lp_model.Le
      else if Prng.bool prng 0.6 then Lp_model.Ge
      else Lp_model.Eq
    in
    ignore (Lp_model.add_row m sense (Prng.uniform prng (-2.) 8.) coeffs)
  done;
  m

(* Min-MLU over a catalog topology: one Eq row per demand over its
   three tunnels, one Le row per used edge. *)
let mlu_lp name npairs =
  let module Graph = Flexile_net.Graph in
  let g = Flexile_net.Catalog.by_name name in
  let seed = Prng.of_string ("pivot-pin-" ^ name) in
  let pairs = Graph.pairs g in
  Prng.shuffle seed pairs;
  let pairs = Array.sub pairs 0 (min npairs (Array.length pairs)) in
  Array.sort compare pairs;
  let demands = Flexile_traffic.Gravity.matrix ~seed ~graph:g ~pairs in
  let model = Lp_model.create () in
  let mu = Lp_model.add_var model ~obj:1. () in
  let per_edge = Array.make (Graph.nedges g) [] in
  Array.iteri
    (fun i pair ->
      if demands.(i) > 0. then
        let ts = Flexile_net.Tunnels.select_single_class g ~pair ~count:3 in
        let vars =
          List.map
            (fun (t : Flexile_net.Tunnels.t) ->
              let v = Lp_model.add_var model () in
              Array.iter (fun e -> per_edge.(e) <- (v, 1.) :: per_edge.(e)) t.path;
              (v, 1.))
            ts
        in
        ignore (Lp_model.add_row model Lp_model.Eq demands.(i) vars))
    pairs;
  Array.iteri
    (fun e coeffs ->
      if coeffs <> [] then
        let cap = g.Graph.edges.(e).Graph.capacity in
        ignore (Lp_model.add_row model Lp_model.Le 0. ((mu, -.cap) :: coeffs)))
    per_edge;
  model

(* Run [f] traced; the deltas of the solver's work counters ride along
   as the last pin line, so a pin also shows that the Bland fallback,
   the dual simplex and refactorizations ran. *)
let with_counts f =
  let module Trace = Flexile_util.Trace in
  let names =
    [ "simplex.iterations"; "simplex.refactorizations"; "simplex.cold_solves";
      "simplex.warm_hits"; "health.bland_pivots" ]
  in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let before = List.map Trace.value_by_name names in
  let lines = f () in
  let deltas = List.map2 ( - ) (List.map Trace.value_by_name names) before in
  lines
  @ [ String.concat " " (List.map2 (Printf.sprintf "%s=%d") names deltas) ]

(* Many rows through the origin with mixed signs: the start is a
   massively degenerate vertex, which drives primal pricing into the
   Bland fallback. *)
let degenerate_lp prng ~nv ~nr =
  let m = Lp_model.create () in
  let vars =
    Array.init nv (fun _ ->
        Lp_model.add_var m ~ub:1. ~obj:(Prng.uniform prng (-1.) 0.2) ())
  in
  for _ = 1 to nr do
    let coeffs =
      Array.fold_left
        (fun acc v ->
          if Prng.bool prng 0.2 then
            (v, float_of_int (Prng.int prng 5 - 2)) :: acc
          else acc)
        [] vars
    in
    ignore (Lp_model.add_row m Lp_model.Le 0. coeffs)
  done;
  m

let test_pin_cold () =
  let prng = Prng.of_string "pivot-pin-cold" in
  check_pin "cold solves"
      [
        "infeasible 3 bfd424683d574de0";
        "optimal 32 c0433877dad5d4f0";
        "optimal 61 c048b0d56cbfc0b5";
        "optimal 210 c050fdbdbc8fcebe";
        "optimal 416 c06cef38ced4367f";
        "optimal 1020 c074ff52e0c55a5d";
        "optimal 97 c02814ee71c96e41";
        "optimal 168 c0296099ea286ec7";
        "optimal 129 c02c7206499963e2";
        "optimal 2198 c027397ce5c7a5fc";
        "optimal 57 401b8c73423a63e7";
        "optimal 79 404031d8be2c5497";
        "optimal 122 4038aef27429219f";
        "simplex.iterations=4592 simplex.refactorizations=109 simplex.cold_solves=13 simplex.warm_hits=0 health.bland_pivots=2029";
      ]
    (with_counts @@ fun () ->
     let random =
       List.map
         (fun (nv, nr) -> pin_line (Simplex.solve (pin_lp prng ~nv ~nr)))
         [ (8, 5); (20, 12); (40, 25); (90, 60); (160, 70); (240, 120) ]
     in
     let degenerate =
       List.map
         (fun (nv, nr) -> pin_line (Simplex.solve (degenerate_lp prng ~nv ~nr)))
         [ (60, 50); (80, 60); (100, 80); (120, 100) ]
     in
     random @ degenerate
     @ List.map
         (fun (name, npairs) -> pin_line (Simplex.solve (mlu_lp name npairs)))
         [ ("IBM", 40); ("GEANT", 60); ("Tinet", 60) ])

(* Warm restarts after RHS moves and bound moves: the dual simplex.  The
   LPs stay feasible (x = 0 satisfies every row) and bounded, so each
   restart is a dual simplex hit. *)
let warm_lp prng ~nv ~nr =
  let m = Lp_model.create () in
  let vars =
    Array.init nv (fun _ ->
        Lp_model.add_var m ~ub:(float_of_int (1 + Prng.int prng 6))
          ~obj:(Prng.uniform prng (-2.) 1.) ())
  in
  for _ = 1 to nr do
    let coeffs =
      Array.fold_left
        (fun acc v ->
          if Prng.bool prng 0.3 then (v, float_of_int (1 + Prng.int prng 4)) :: acc
          else acc)
        [] vars
    in
    if Prng.bool prng 0.7 then
      ignore (Lp_model.add_row m Lp_model.Le (Prng.uniform prng 1. 8.) coeffs)
    else
      ignore
        (Lp_model.add_row m Lp_model.Ge (Prng.uniform prng (-8.) (-1.))
           (List.map (fun (v, c) -> (v, -.c)) coeffs))
  done;
  m

let test_pin_warm () =
  let prng = Prng.of_string "pivot-pin-warm" in
  check_pin "warm restarts"
      [
        "optimal 8 c025985d23ea287c";
        "optimal 2 c0256125a8d598a2";
        "optimal 1 c024678929b1e6a8";
        "optimal 1 c02441d89b9becb0";
        "optimal 1 c0222abc9dc35f6e";
        "optimal 5 c01d43e55d68428e";
        "optimal 2 c020f454865ff1dc";
        "optimal 23 c0127c5607d914d7";
        "optimal 22 c00d016c505da5c3";
        "optimal 7 c00b35b7775b579d";
        "optimal 9 c006cebaee7fbefc";
        "optimal 5 c004ef187f009473";
        "optimal 5 c003eeee0d9facce";
        "optimal 27 c000049e0153f789";
        "optimal 54 c016e6a758cf2edd";
        "optimal 41 c011dfd063197c71";
        "optimal 53 c00b1ecf4a06e6b1";
        "optimal 29 c007193a15da3d02";
        "optimal 21 c0047d9e252c3bb9";
        "optimal 7 c003fd0e121ac1c4";
        "optimal 15 c00251f31202c3d9";
        "simplex.iterations=338 simplex.refactorizations=16 simplex.cold_solves=3 simplex.warm_hits=18 health.bland_pivots=0";
      ]
    (with_counts @@ fun () ->
     List.concat_map
       (fun (nv, nr) ->
         let m = warm_lp prng ~nv ~nr in
         let st = Simplex.make m and w = Lp_walk.of_model m in
         let first = pin_line (Simplex.solve_warm st) in
         first
         :: List.init 6 (fun round ->
                for _ = 1 to 1 + (nr / 4) do
                  let r = Prng.int prng nr in
                  let v = w.Lp_walk.rhs.(r) in
                  Lp_walk.set_rhs w st r (v *. Prng.uniform prng 0.3 1.2)
                done;
                if round mod 2 = 1 then
                  for _ = 1 to 1 + (nv / 8) do
                    let v = Prng.int prng nv in
                    Lp_walk.set_bounds w st v ~lb:0.
                      ~ub:(float_of_int (Prng.int prng 4))
                  done;
                pin_line (Simplex.solve_warm st)))
       [ (12, 8); (60, 40); (150, 90) ])

(* A seeded binary MIP: nodes, status, bound and incumbent bits, and
   the pivots of every node LP. *)
let test_pin_mip () =
  let prng = Prng.of_string "pivot-pin-mip" in
  let m = Lp_model.create () in
  let bins =
    Array.init 22 (fun _ ->
        Lp_model.add_var m ~ub:1. ~obj:(Prng.uniform prng (-3.) 0.5) ())
  in
  let conts =
    Array.init 4 (fun _ ->
        Lp_model.add_var m ~ub:5. ~obj:(Prng.uniform prng 0. 1.) ())
  in
  for _ = 1 to 6 do
    let coeffs =
      Array.to_list
        (Array.map (fun v -> (v, float_of_int (1 + Prng.int prng 9))) bins)
      @ Array.to_list (Array.map (fun v -> (v, -.Prng.uniform prng 0. 2.)) conts)
    in
    ignore (Lp_model.add_row m Lp_model.Le (Prng.uniform prng 15. 30.) coeffs)
  done;
  check_pin "mip"
      [
        "optimal 39 c027ce2ae9569ec3 c027ce2ae9569ec3";
        "simplex.iterations=416 simplex.refactorizations=75 simplex.cold_solves=39 simplex.warm_hits=0 health.bland_pivots=0";
      ]
    (with_counts @@ fun () ->
     let r = Mip.solve ~binaries:bins m in
     let status =
       match r.Mip.status with
       | Mip.Optimal -> "optimal"
       | Mip.Feasible -> "feasible"
       | Mip.Infeasible -> "infeasible"
       | Mip.Limit -> "limit"
     in
     [
       Printf.sprintf "%s %d %Lx %Lx" status r.Mip.nodes
         (Int64.bits_of_float r.Mip.bound) (Int64.bits_of_float r.Mip.obj);
     ])

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flexile_lp"
    [
      ( "simplex",
        [
          quick "basic maximization" test_basic_lp;
          quick "equality and >= rows" test_equality_and_ge;
          quick "bounded variables" test_bounded_vars;
          quick "free variables" test_free_variable;
          quick "infeasible detection" test_infeasible;
          quick "unbounded detection" test_unbounded;
          quick "degenerate (Beale)" test_degenerate;
          quick "duality certificates" test_duality_certificate;
        ] );
      ( "warm-restart",
        [
          quick "rhs re-solve matches cold" test_warm_restart;
          quick "rhs re-solve infeasible" test_warm_restart_infeasible;
          quick "row extension (cutting planes)" test_extend_rows;
          quick "fallback keeps the abandoned pivots" test_fallback_pivots_counted;
        ] );
      ( "row-generation",
        [ quick "lazy rows" test_row_gen; quick "cut short by max_rounds" test_row_gen_cut_short ] );
      ( "mip",
        [
          quick "knapsack" test_mip_knapsack;
          quick "infeasible" test_mip_infeasible;
          quick "unbounded relaxation is a limit" test_mip_unbounded_relaxation;
          quick "mixed binary/continuous" test_mip_mixed;
          quick "heuristic incumbent" test_mip_heuristic_used;
          quick "stop counters" test_mip_stop_counters;
        ] );
      ( "pivot pin",
        [
          quick "cold solves" test_pin_cold;
          quick "warm restarts" test_pin_warm;
          quick "mip" test_pin_mip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_2d_lp;
            qcheck_feasibility;
            qcheck_warm_rhs_sequences;
            qcheck_extend_rows;
            qcheck_mip_vs_enum;
          ] );
    ]
