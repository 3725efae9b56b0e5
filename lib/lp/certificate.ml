(* LP optimality certificate (weak duality made tight).

   With reduced costs d = c - A^T y, for any feasible x
     c.x = y.(A x) + d.x >= y.b + sum_j d_j * bound_j = D
   when y <= 0 on Le rows, y >= 0 on Ge rows and every d_j is paired
   with the finite bound it pushes against (lb for d_j > 0, ub for
   d_j < 0).  So a feasible x whose c.x equals D is optimal, whatever
   solver produced it.  A wrong-sign d_j (no finite bound on that side)
   is counted as a dual violation and paired with x_j instead, which
   keeps the gap finite. *)

type t = { primal_violation : float; dual_violation : float; gap : float }

let primal_tol = 1e-7
let dual_tol = 1e-7
let gap_tol = 1e-9

let check model (sol : Simplex.solution) =
  let n = Lp_model.nvars model and m = Lp_model.nrows model in
  if
    Array.length sol.Simplex.x <> n
    || Array.length sol.Simplex.reduced_costs <> n
    || Array.length sol.Simplex.row_duals <> m
  then invalid_arg "Certificate.check: solution does not match the model";
  let y = sol.Simplex.row_duals in
  let viol = ref 0. in
  let worse v = viol := Float.max !viol v in
  (* d = c - A^T y, one pass over the rows *)
  let d = Array.init n (Lp_model.obj_coef model) in
  let csr = Lp_model.csr model in
  for i = 0 to m - 1 do
    (match Lp_model.row_sense model i with
    | Lp_model.Le -> worse y.(i)
    | Lp_model.Ge -> worse (-.y.(i))
    | Lp_model.Eq -> ());
    for k = csr.Lp_model.row_start.(i) to csr.Lp_model.row_start.(i + 1) - 1 do
      let j = csr.Lp_model.col_idx.(k) in
      d.(j) <- d.(j) -. (csr.Lp_model.row_values.(k) *. y.(i))
    done
  done;
  let rhs = Array.init m (Lp_model.rhs model) in
  let cx = ref 0. and dual_obj = ref 0. in
  Array.iteri (fun i yi -> dual_obj := !dual_obj +. (yi *. rhs.(i))) y;
  for j = 0 to n - 1 do
    let dj = d.(j) and xj = sol.Simplex.x.(j) in
    let lb = Lp_model.lb model j and ub = Lp_model.ub model j in
    cx := !cx +. (Lp_model.obj_coef model j *. xj);
    let bound =
      if dj > 0. && Float.is_finite lb then lb
      else if dj < 0. && Float.is_finite ub then ub
      else begin
        (* d_j = 0, or a d_j with no finite bound on its side *)
        worse (Float.abs dj);
        xj
      end
    in
    dual_obj := !dual_obj +. (dj *. bound);
    worse (Float.abs (sol.Simplex.reduced_costs.(j) -. dj))
  done;
  let rel a b = Float.abs (a -. b) /. Float.max 1. (Float.abs !cx) in
  {
    primal_violation = Lp_model.max_violation model sol.Simplex.x;
    dual_violation = !viol;
    gap =
      Float.max
        (rel !cx !dual_obj)
        (Float.max (rel sol.Simplex.obj !cx)
           (rel (Simplex.dual_bound sol ~rhs) !dual_obj));
  }

let certified c =
  c.primal_violation <= primal_tol
  && c.dual_violation <= dual_tol
  && c.gap <= gap_tol
