(* Property tests of the simplex duality certificates and of the warm
   restart path, plus exactness checks of the trace counters on the
   warm/cold decision (the observability layer must agree with what the
   solver actually did). *)

open Flexile_lp
module Prng = Flexile_util.Prng
module Trace = Flexile_util.Trace

let solve_status = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iter-limit"

(* Random bounded LP: every variable lives in [0, 4], so the problem is
   never unbounded and weak duality questions are always well-posed. *)
let random_lp prng ~nv ~nr =
  let m = Lp_model.create () in
  let vars =
    Array.init nv (fun _ ->
        Lp_model.add_var m ~ub:4. ~obj:(Prng.uniform prng (-2.) 2.) ())
  in
  for _ = 1 to nr do
    let coeffs =
      Array.to_list
        (Array.map (fun v -> (v, float_of_int (Prng.int prng 7 - 3))) vars)
    in
    let sense = if Prng.bool prng 0.7 then Lp_model.Le else Lp_model.Ge in
    ignore (Lp_model.add_row m sense (Prng.uniform prng (-2.) 6.) coeffs)
  done;
  m

(* A cold solve of a fresh model of [m] under [rhs]. *)
let cold_with_rhs m rhs = Simplex.solve (Lp_walk.with_rhs m rhs)

(* Restart [st] after moving only the RHS. *)
let warm_with_rhs st rhs =
  Array.iteri (Simplex.set_rhs st) rhs;
  Simplex.solve_warm st

(* ---- weak duality of Simplex.dual_bound ---- *)

let qcheck_weak_duality =
  let gen = QCheck.Gen.(pair (int_range 2 7) (int_range 1 6)) in
  QCheck.Test.make ~name:"dual_bound: exact at original rhs, weak elsewhere"
    ~count:150 (QCheck.make gen) (fun (nv, nr) ->
      let prng = Prng.of_string (Printf.sprintf "qc-wd-%d-%d" nv nr) in
      let m = random_lp prng ~nv ~nr in
      let rhs0 = Array.init (Lp_model.nrows m) (Lp_model.rhs m) in
      let sol = Simplex.solve m in
      match sol.Simplex.status with
      | Simplex.Optimal ->
          (* strong duality: the parametric bound reproduces the
             optimum at the rhs it was computed for *)
          Float.abs (Simplex.dual_bound sol ~rhs:rhs0 -. sol.Simplex.obj)
          <= 1e-6 *. (1. +. Float.abs sol.Simplex.obj)
          && (* weak duality on random perturbations: never above the
                cold re-solve's optimum (vacuous when perturbed rhs is
                infeasible, i.e. optimum = +inf) *)
          List.for_all
            (fun _ ->
              let rhs =
                Array.map (fun v -> v +. Prng.uniform prng (-2.) 2.) rhs0
              in
              let bound = Simplex.dual_bound sol ~rhs in
              let cold = cold_with_rhs m rhs in
              match cold.Simplex.status with
              | Simplex.Optimal ->
                  bound
                  <= cold.Simplex.obj
                     +. (1e-6 *. (1. +. Float.abs cold.Simplex.obj))
              | Simplex.Infeasible -> true
              | _ -> false)
            [ (); (); () ]
      | Simplex.Infeasible -> true
      | _ -> false)

(* ---- differential: warm rhs walk vs cold re-solves ---- *)

let qcheck_warm_walk_differential =
  (* a walk of large rhs jumps: many steps flip row activity enough to
     invalidate the basis, exercising both the dual-simplex success
     path and the cold-fallback path; every step must agree with a
     cold solve on status, objective (1e-6 relative) and feasibility *)
  let gen = QCheck.Gen.(pair (int_range 2 7) (int_range 1 6)) in
  QCheck.Test.make ~name:"warm rhs walk matches cold solves to 1e-6"
    ~count:100 (QCheck.make gen) (fun (nv, nr) ->
      let prng = Prng.of_string (Printf.sprintf "qc-walk-%d-%d" nv nr) in
      let m = random_lp prng ~nv ~nr in
      let st = Simplex.make m in
      let _ = Simplex.solve_warm st in
      let ok = ref true in
      for _ = 1 to 6 do
        if !ok then begin
          let rhs =
            Array.init (Lp_model.nrows m) (fun _ -> Prng.uniform prng (-3.) 8.)
          in
          let warm = warm_with_rhs st rhs in
          let reference = Lp_walk.with_rhs m rhs in
          let cold = Simplex.solve reference in
          ok :=
            (match (warm.Simplex.status, cold.Simplex.status) with
            | Simplex.Optimal, Simplex.Optimal ->
                Float.abs (warm.Simplex.obj -. cold.Simplex.obj)
                <= 1e-6 *. (1. +. Float.abs cold.Simplex.obj)
                && Lp_model.max_violation reference warm.Simplex.x <= 1e-6
            | a, b -> a = b)
        end
      done;
      !ok)

(* ---- one reused state vs fresh states ---- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_answer (a : Simplex.solution) (b : Simplex.solution) =
  a.Simplex.status = b.Simplex.status
  && a.Simplex.iterations = b.Simplex.iterations
  && same_bits a.Simplex.obj b.Simplex.obj
  && same_bits a.Simplex.bound_term b.Simplex.bound_term
  && Array.for_all2 same_bits a.Simplex.x b.Simplex.x
  && Array.for_all2 same_bits a.Simplex.row_duals b.Simplex.row_duals
  && Array.for_all2 same_bits a.Simplex.reduced_costs b.Simplex.reduced_costs

(* The branch-and-bound contract: one solver state, re-solved cold
   under each node's fixings, answers bit for bit as a fresh
   [Simplex.solve], even when warm restarts moved the state between
   the cold solves. *)
let qcheck_reused_state_cold =
  let gen = QCheck.Gen.(triple (int_range 2 40) (int_range 1 25) (int_range 0 999)) in
  QCheck.Test.make ~name:"reused state re-solved cold = fresh solve, bit for bit"
    ~count:80 (QCheck.make gen) (fun (nv, nr, walk) ->
      let prng = Prng.of_string (Printf.sprintf "qc-reuse-%d-%d-%d" nv nr walk) in
      let m = random_lp prng ~nv ~nr in
      let st = Simplex.make m and w = Lp_walk.of_model m in
      List.for_all
        (fun _ ->
          for _ = 1 to 1 + Prng.int prng 3 do
            let v = Prng.int prng nv in
            if Prng.bool prng 0.3 then Lp_walk.set_bounds w st v ~lb:0. ~ub:4.
            else
              let x = float_of_int (Prng.int prng 3) in
              Lp_walk.set_bounds w st v ~lb:x ~ub:x
          done;
          if Prng.bool prng 0.3 then ignore (Simplex.solve_warm st);
          same_answer (Simplex.solve_cold st) (Simplex.solve (Lp_walk.model w)))
        (List.init 8 Fun.id))

(* The same walk under an eta limit of 2: every second pivot rebuilds
   the LU factorization, so the walk repeatedly crosses the
   refactorization path (including mid-dual-simplex rebuilds) instead
   of riding the eta file.  Results must still match cold solves. *)
let qcheck_warm_walk_tight_refactor =
  let gen = QCheck.Gen.(pair (int_range 2 7) (int_range 1 6)) in
  QCheck.Test.make ~name:"warm rhs walk under eta limit 2 matches cold"
    ~count:60 (QCheck.make gen) (fun (nv, nr) ->
      let prng = Prng.of_string (Printf.sprintf "qc-refac-%d-%d" nv nr) in
      let m = random_lp prng ~nv ~nr in
      let st = Simplex.make ~eta_limit:2 m in
      let _ = Simplex.solve_warm st in
      let ok = ref true in
      for _ = 1 to 6 do
        if !ok then begin
          let rhs =
            Array.init (Lp_model.nrows m) (fun _ ->
                Prng.uniform prng (-3.) 8.)
          in
          let warm = warm_with_rhs st rhs in
          let reference = Lp_walk.with_rhs m rhs in
          let cold = Simplex.solve reference in
          ok :=
            (match (warm.Simplex.status, cold.Simplex.status) with
            | Simplex.Optimal, Simplex.Optimal ->
                Float.abs (warm.Simplex.obj -. cold.Simplex.obj)
                <= 1e-6 *. (1. +. Float.abs cold.Simplex.obj)
                && Lp_model.max_violation reference warm.Simplex.x <= 1e-6
            | a, b -> a = b)
        end
      done;
      !ok)

(* ---- degenerate-basis recovery: duplicated constraint rows ----

   Exact duplicates of binding rows create massively degenerate
   (primal-tied, dual-dependent) bases — the regime where the sparse
   LU core relies on its patch/repair path and on Bland's rule.  The
   warm walk moves the duplicated RHS values together (keeping the
   model consistent) and apart (making it infeasible); every step must
   agree with a cold solve. *)
let test_duplicate_rows_recovery () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~ub:10. ~obj:(-1.) () in
  let y = Lp_model.add_var m ~ub:10. ~obj:(-2.) () in
  let z = Lp_model.add_var m ~ub:10. ~obj:(-1.) () in
  (* the same facet three times plus a coupling row *)
  let r1 = Lp_model.add_row m Lp_model.Le 8. [ (x, 1.); (y, 1.) ] in
  let r2 = Lp_model.add_row m Lp_model.Le 8. [ (x, 1.); (y, 1.) ] in
  let r3 = Lp_model.add_row m Lp_model.Le 8. [ (x, 1.); (y, 1.) ] in
  let r4 = Lp_model.add_row m Lp_model.Eq 5. [ (y, 1.); (z, 1.) ] in
  ignore (r1, r2, r3, r4);
  let st = Simplex.make m in
  let first = Simplex.solve_warm st in
  Alcotest.(check string)
    "duplicate rows: cold solve" "optimal"
    (solve_status first.Simplex.status);
  let steps =
    [
      ([| 6.; 6.; 6.; 5. |], "optimal");
      (* the duplicates disagree: rows force x+y <= 2 effectively *)
      ([| 2.; 6.; 6.; 5. |], "optimal");
      ([| 2.; 2.; 2.; 14. |], "infeasible");
      ([| 8.; 8.; 8.; 5. |], "optimal");
    ]
  in
  List.iteri
    (fun i (rhs, expected) ->
      let warm = warm_with_rhs st rhs in
      let reference = Lp_walk.with_rhs m rhs in
      let cold = Simplex.solve reference in
      Alcotest.(check string)
        (Printf.sprintf "step %d cold status" i)
        expected
        (solve_status cold.Simplex.status);
      Alcotest.(check string)
        (Printf.sprintf "step %d warm = cold status" i)
        (solve_status cold.Simplex.status)
        (solve_status warm.Simplex.status);
      if cold.Simplex.status = Simplex.Optimal then begin
        if
          Float.abs (warm.Simplex.obj -. cold.Simplex.obj)
          > 1e-6 *. (1. +. Float.abs cold.Simplex.obj)
        then
          Alcotest.failf "step %d: warm obj %.12g vs cold %.12g" i
            warm.Simplex.obj cold.Simplex.obj;
        if Lp_model.max_violation reference warm.Simplex.x > 1e-6 then
          Alcotest.failf "step %d: warm solution infeasible" i
      end)
    steps

(* ---- differential: bound, cost and rhs walk vs cold re-solves ---- *)

(* A walk that moves a state's bounds (fixing and freeing variables),
   right-hand sides and now and then costs, through its setters,
   exercises every restart leg: dual simplex, primal phase 2 and the
   cold fallback.  Each step must agree with a cold solve of a freshly
   built model of the same data; a state restarted from the first
   one's basis must agree too, and a copy of the first one must solve
   as it does, bit for bit. *)
let same_solution (a : Simplex.solution) (b : Simplex.solution) =
  let bits = Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) in
  a.Simplex.status = b.Simplex.status
  && a.Simplex.iterations = b.Simplex.iterations
  && bits [| a.Simplex.obj; a.Simplex.bound_term |] [| b.Simplex.obj; b.Simplex.bound_term |]
  && bits a.Simplex.x b.Simplex.x
  && bits a.Simplex.row_duals b.Simplex.row_duals
  && bits a.Simplex.reduced_costs b.Simplex.reduced_costs

let qcheck_bound_walk_differential =
  let gen = QCheck.Gen.(pair (int_range 2 7) (int_range 1 6)) in
  QCheck.Test.make ~name:"bound/cost/rhs walk matches cold solves to 1e-6"
    ~count:100 (QCheck.make gen) (fun (nv, nr) ->
      let prng = Prng.of_string (Printf.sprintf "qc-bounds-%d-%d" nv nr) in
      let m = random_lp prng ~nv ~nr in
      let st = Simplex.make m and w = Lp_walk.of_model m in
      let _ = Simplex.solve_warm st in
      let agree reference (a : Simplex.solution) (b : Simplex.solution) =
        match (a.Simplex.status, b.Simplex.status) with
        | Simplex.Optimal, Simplex.Optimal ->
            Float.abs (a.Simplex.obj -. b.Simplex.obj)
            <= 1e-6 *. (1. +. Float.abs b.Simplex.obj)
            && Lp_model.max_violation reference a.Simplex.x <= 1e-6
        | x, y -> x = y
      in
      let ok = ref true in
      for step = 1 to 6 do
        if !ok then begin
          for j = 0 to nv - 1 do
            let lb = if Prng.bool prng 0.3 then Prng.uniform prng 0. 2. else 0. in
            let ub = if Prng.bool prng 0.2 then lb else Prng.uniform prng lb 4. in
            Lp_walk.set_bounds w st j ~lb ~ub;
            if step mod 3 = 0 then Lp_walk.set_obj w st j (Prng.uniform prng (-2.) 2.)
          done;
          for r = 0 to nr - 1 do
            Lp_walk.set_rhs w st r (Prng.uniform prng (-3.) 8.)
          done;
          let restarted = Simplex.restart_from st and copied = Simplex.copy st in
          let warm = Simplex.solve_warm st in
          let reference = Lp_walk.model w in
          let cold = Simplex.solve reference in
          ok :=
            agree reference warm cold
            && agree reference (Simplex.solve_warm restarted) cold
            && same_solution (Simplex.solve_warm copied) warm
        end
      done;
      !ok)

(* A copy of a restart point (a state at an optimal basis, factored
   once, its reduced costs primed) solves after setter calls as a state
   restarted from that copy's data and basis does, bit for bit: under
   new bounds, RHS and costs, and under a changed coefficient of a
   basic column (the copy refactors) or of a nonbasic one (it drops
   the primed reduced costs).  The coefficient writes go to the copy's
   own matrix: the point, a copy taken before them and one taken after
   still solve as the point did.  Scen_lp's nominal state and its
   scenario copies are this. *)
let qcheck_copy_matches_restart =
  let gen = QCheck.Gen.(triple (int_range 2 7) (int_range 1 6) (int_bound 1_000_000)) in
  QCheck.Test.make ~name:"copies of a restart point solve as restarts, bit for bit" ~count:200
    (QCheck.make gen) (fun (nv, nr, salt) ->
      let prng = Prng.of_string (Printf.sprintf "qc-copy-%d-%d-%d" nv nr salt) in
      let m = random_lp prng ~nv ~nr in
      let st = Simplex.make m in
      let first = Simplex.solve_warm st in
      let point = Simplex.restart_from st in
      Simplex.prime_duals point;
      let sibling = Simplex.copy point in
      let nominal = Simplex.solve_warm (Simplex.copy point) in
      (* columns surely basic (strictly inside their bounds) and surely
         nonbasic (a nonzero reduced cost) at the point *)
      let cols p = List.filter p (List.init nv Fun.id) in
      let basic = cols (fun j -> first.Simplex.x.(j) > 1e-6 && first.Simplex.x.(j) < 4. -. 1e-6)
      and nonbasic = cols (fun j -> Float.abs first.Simplex.reduced_costs.(j) > 1e-6) in
      let pick = function [] -> None | l -> Some (List.nth l (Prng.int prng (List.length l))) in
      let restarts_agree =
        List.for_all
          (fun _ ->
            let copied = Simplex.copy point in
            for j = 0 to nv - 1 do
              if Prng.bool prng 0.4 then begin
                let lb = if Prng.bool prng 0.3 then Prng.uniform prng 0. 1. else 0. in
                let ub = if Prng.bool prng 0.2 then lb else Prng.uniform prng lb 4. in
                Simplex.set_bounds copied j ~lb ~ub
              end;
              if Prng.bool prng 0.1 then Simplex.set_obj copied j (Prng.uniform prng (-2.) 2.)
            done;
            for r = 0 to nr - 1 do
              if Prng.bool prng 0.4 then Simplex.set_rhs copied r (Prng.uniform prng (-2.) 6.)
            done;
            List.iter
              (fun col ->
                match col with
                | Some j when Prng.bool prng 0.6 ->
                    let c = float_of_int (1 + Prng.int prng 3) in
                    (try Simplex.set_coef copied (Prng.int prng nr) j c
                     with Invalid_argument _ -> ())
                | _ -> ())
              [ pick basic; pick nonbasic ];
            let restarted = Simplex.restart_from copied in
            same_solution (Simplex.solve_warm copied) (Simplex.solve_warm restarted))
          (List.init 5 Fun.id)
      in
      restarts_agree
      && same_solution (Simplex.solve_warm sibling) nominal
      && same_solution (Simplex.solve_warm (Simplex.copy point)) nominal
      && same_solution (Simplex.solve_warm point) nominal)

(* ---- the warm/cold decision is visible in the trace counters ---- *)

let expect_status name expected sol =
  Alcotest.(check string) name expected (solve_status sol.Simplex.status)

let test_warm_fallback_counters () =
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let v name = Trace.value_by_name name in
  (* min x, x in [0,5], x >= rhs: rhs 7 makes the warm basis prove
     infeasibility (confirmed cold), rhs 3 then re-solves cold because
     the state is no longer optimal — both legs of the fallback path *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~ub:5. ~obj:1. () in
  let _ = Lp_model.add_row m Lp_model.Ge 2. [ (x, 1.) ] in
  let st = Simplex.make m in
  let c0 = v "simplex.cold_solves" in
  let sol1 = Simplex.solve_warm st in
  expect_status "first solve" "optimal" sol1;
  Alcotest.(check int) "first solve is cold" (c0 + 1) (v "simplex.cold_solves");
  let a0 = v "simplex.warm_attempts" and c1 = v "simplex.cold_solves" in
  let sol2 = warm_with_rhs st [| 7. |] in
  expect_status "rhs 7" "infeasible" sol2;
  Alcotest.(check int) "warm attempt counted" (a0 + 1)
    (v "simplex.warm_attempts");
  Alcotest.(check int) "infeasibility confirmed by a cold solve" (c1 + 1)
    (v "simplex.cold_solves");
  let c2 = v "simplex.cold_solves" in
  let sol3 = warm_with_rhs st [| 3. |] in
  expect_status "rhs 3" "optimal" sol3;
  if Float.abs (sol3.Simplex.obj -. 3.) > 1e-9 then
    Alcotest.failf "rhs 3: expected obj 3, got %.9g" sol3.Simplex.obj;
  Alcotest.(check int) "invalidated basis falls back to cold" (c2 + 1)
    (v "simplex.cold_solves")

let test_warm_hit_counted () =
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let v name = Trace.value_by_name name in
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-2.) () in
  let y = Lp_model.add_var m ~obj:(-3.) () in
  let _ = Lp_model.add_row m Lp_model.Le 10. [ (x, 1.); (y, 2.) ] in
  let _ = Lp_model.add_row m Lp_model.Le 15. [ (x, 3.); (y, 1.) ] in
  let st = Simplex.make m in
  let sol1 = Simplex.solve_warm st in
  expect_status "initial" "optimal" sol1;
  let h0 = v "simplex.warm_hits" in
  let sol2 = warm_with_rhs st [| 8.; 12. |] in
  expect_status "warm resolve" "optimal" sol2;
  Alcotest.(check int) "warm hit counted" (h0 + 1) (v "simplex.warm_hits")

(* x, y in [0,10], x + y >= 2, min x + 2y: optimal at x = 2 basic. *)
let restart_lp () =
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~ub:10. ~obj:1. () in
  let y = Lp_model.add_var m ~ub:10. ~obj:2. () in
  let r = Lp_model.add_row m Lp_model.Ge 2. [ (x, 1.); (y, 1.) ] in
  let st = Simplex.make m in
  expect_status "initial" "optimal" (Simplex.solve_warm st);
  (x, y, r, st)

let test_restart_legs_counted () =
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let v name = Trace.value_by_name name in
  let counts () =
    List.map v
      [ "simplex.warm_attempts"; "simplex.warm_hits"; "simplex.warm_fallbacks"; "simplex.cold_solves" ]
  in
  let delta what ~before ~obj (sol : Simplex.solution) expected =
    expect_status what "optimal" sol;
    if Float.abs (sol.Simplex.obj -. obj) > 1e-9 then
      Alcotest.failf "%s: expected obj %g, got %.9g" what obj sol.Simplex.obj;
    Alcotest.(check (list int))
      (what ^ ": attempts, hits, fallbacks, cold solves")
      expected
      (List.map2 ( - ) (counts ()) before)
  in
  (* x <= 1 leaves the basis primal infeasible but dual feasible: the
     dual simplex moves the rest onto y *)
  let x, _, _, st = restart_lp () in
  let before = counts () in
  Simplex.set_bounds st x ~lb:0. ~ub:1.;
  delta "bound change (dual simplex)" ~before ~obj:3. (Simplex.solve_warm st) [ 1; 1; 0; 0 ];
  (* min -y: no longer dual feasible, still primal feasible *)
  let x, y, _, st = restart_lp () in
  let before = counts () in
  Simplex.set_obj st x 0.;
  Simplex.set_obj st y (-1.);
  delta "cost change (primal phase 2)" ~before ~obj:(-10.) (Simplex.solve_warm st) [ 1; 1; 0; 0 ];
  (* the same cost change with x + y >= 12: neither feasibility holds,
     so the restart falls back to a cold solve *)
  let x, y, r, st = restart_lp () in
  let before = counts () in
  Simplex.set_obj st x 0.;
  Simplex.set_obj st y (-1.);
  Simplex.set_rhs st r 12.;
  delta "cost and rhs change (cold fallback)" ~before ~obj:(-10.) (Simplex.solve_warm st)
    [ 1; 0; 1; 1 ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flexile_lp_props"
    [
      ( "duality",
        List.map QCheck_alcotest.to_alcotest [ qcheck_weak_duality ] );
      ( "warm-vs-cold",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_warm_walk_differential;
            qcheck_warm_walk_tight_refactor;
            qcheck_bound_walk_differential;
            qcheck_copy_matches_restart;
          ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Fuzz.rand ())
              qcheck_reused_state_cold;
          ]
        @ [ quick "duplicate rows recovery" test_duplicate_rows_recovery ] );
      ( "trace-counters",
        [
          quick "fallback legs counted" test_warm_fallback_counters;
          quick "warm hit counted" test_warm_hit_counted;
          quick "restart legs counted" test_restart_legs_counted;
        ] );
    ]
