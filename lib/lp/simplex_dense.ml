(* Frozen dense reference implementation of the two-phase
   bounded-variable revised simplex (primal + dual for RHS restarts).

   This is the pre-sparse solver kept verbatim (minus trace probes) as
   the differential oracle for the LU/eta path in [Simplex]: set
   FLEXILE_DENSE_SIMPLEX=1 to route [Simplex] through this module, or
   call it directly from tests.  It maintains an explicit dense m*m
   basis inverse, updated in O(m^2) per pivot and rebuilt by
   Gauss-Jordan on numerical failure.  Do not extend it — new solver
   work belongs in [Simplex]/[Sparse].

   Computational form: rows become equalities [A x + s = b] with one
   slack per row (coefficient +1) whose bounds encode the sense:
     Le -> s in [0, +inf)    Ge -> s in (-inf, 0]    Eq -> s in [0, 0]
   One artificial column per row (also +1, so the basis matrix is
   unchanged when an artificial replaces its slack) supports the
   phase-1 start; artificials are fixed to [0,0] in phase 2.

   Variable layout: [0, n) structural, [n, n+m) slacks,
   [n+m, n+2m) artificials. *)

let feas_tol = 1e-7
let opt_tol = 1e-7
let pivot_tol = 1e-9
let degen_threshold = 120
let src = Logs.Src.create "flexile.lp.dense" ~doc:"LP solver (dense reference)"

module Log = (val Logs.src_log src : Logs.LOG)
module Float_cmp = Flexile_util.Float_cmp

type status = Optimal | Infeasible | Unbounded | Iteration_limit

type solution = {
  status : status;
  obj : float;
  x : float array;
  row_duals : float array;
  reduced_costs : float array;
  bound_term : float;
  iterations : int;
}

let dual_bound sol ~rhs =
  let s = ref sol.bound_term in
  Array.iteri (fun i y -> s := !s +. (y *. rhs.(i))) sol.row_duals;
  !s

(* Nonbasic-at-lower / -at-upper / basic / nonbasic-free (value 0). *)
let at_lower = 0
let at_upper = 1
let basic = 2
let free = 3

type t = {
  n : int;
  m : int;
  ntot : int;
  csc : Lp_model.csc;
  lo : float array;
  up : float array;
  cost : float array; (* phase-2 costs over ntot *)
  b : float array; (* current rhs *)
  vstat : int array;
  bas : int array; (* length m *)
  binv : float array array;
  xb : float array;
  xn : float array; (* bound value of each nonbasic variable *)
  mutable last_status : status option;
}

let slack_bounds sense =
  match sense with
  | Lp_model.Le -> (0., infinity)
  | Lp_model.Ge -> (neg_infinity, 0.)
  | Lp_model.Eq -> (0., 0.)

let make model =
  let n = Lp_model.nvars model and m = Lp_model.nrows model in
  let ntot = n + (2 * m) in
  let lo = Array.make ntot 0. and up = Array.make ntot 0. in
  let cost = Array.make ntot 0. in
  for j = 0 to n - 1 do
    lo.(j) <- Lp_model.lb model j;
    up.(j) <- Lp_model.ub model j;
    cost.(j) <- Lp_model.obj_coef model j
  done;
  let b = Array.make m 0. in
  for i = 0 to m - 1 do
    let slo, sup = slack_bounds (Lp_model.row_sense model i) in
    lo.(n + i) <- slo;
    up.(n + i) <- sup;
    (* artificial bounds adjusted during phase-1 setup *)
    lo.(n + m + i) <- 0.;
    up.(n + m + i) <- 0.;
    b.(i) <- Lp_model.rhs model i
  done;
  {
    n;
    m;
    ntot;
    csc = Lp_model.csc model;
    lo;
    up;
    cost;
    b;
    vstat = Array.make ntot at_lower;
    bas = Array.make m 0;
    binv = Array.init m (fun _ -> Array.make m 0.);
    xb = Array.make m 0.;
    xn = Array.make ntot 0.;
    last_status = None;
  }

(* Iterate over the (row, coefficient) entries of column [j]. *)
let col_iter st j f =
  if j < st.n then begin
    let c = st.csc in
    for k = c.Lp_model.col_start.(j) to c.Lp_model.col_start.(j + 1) - 1 do
      f c.Lp_model.row_idx.(k) c.Lp_model.values.(k)
    done
  end
  else begin
    let i = if j < st.n + st.m then j - st.n else j - st.n - st.m in
    f i 1.0
  end

(* Dot of a dense m-vector with column j. *)
let col_dot st y j =
  let s = ref 0. in
  col_iter st j (fun i a -> s := !s +. (y.(i) *. a));
  !s

(* w := Binv * A_j *)
let ftran st j w =
  Array.fill w 0 st.m 0.;
  col_iter st j (fun r a ->
      for i = 0 to st.m - 1 do
        w.(i) <- w.(i) +. (st.binv.(i).(r) *. a)
      done)

(* y := costs_B * Binv *)
let btran st costs y =
  Array.fill y 0 st.m 0.;
  for k = 0 to st.m - 1 do
    let c = costs.(st.bas.(k)) in
    if Float_cmp.nonzero c then begin
      let bk = st.binv.(k) in
      for i = 0 to st.m - 1 do
        y.(i) <- y.(i) +. (c *. bk.(i))
      done
    end
  done

(* Recompute basic values from scratch:
   xb = Binv * (b - sum_{nonbasic j} A_j * xn_j). *)
let recompute_xb st =
  let bt = Array.copy st.b in
  for j = 0 to st.ntot - 1 do
    if st.vstat.(j) <> basic && Float_cmp.nonzero st.xn.(j) then
      col_iter st j (fun i a -> bt.(i) <- bt.(i) -. (a *. st.xn.(j)))
  done;
  for i = 0 to st.m - 1 do
    let s = ref 0. and bi = st.binv.(i) in
    for k = 0 to st.m - 1 do
      s := !s +. (bi.(k) *. bt.(k))
    done;
    st.xb.(i) <- !s
  done

(* Rebuild Binv by Gauss-Jordan inversion of the basis matrix. *)
exception Singular_basis

let refactorize st =
  let m = st.m in
  let a = Array.init m (fun _ -> Array.make m 0.) in
  for k = 0 to m - 1 do
    col_iter st st.bas.(k) (fun i v -> a.(i).(k) <- v)
  done;
  let inv = Array.init m (fun i -> Array.init m (fun j -> if i = j then 1. else 0.)) in
  for c = 0 to m - 1 do
    (* partial pivoting *)
    let piv_row = ref c in
    for r = c + 1 to m - 1 do
      if Float.abs a.(r).(c) > Float.abs a.(!piv_row).(c) then piv_row := r
    done;
    if Float.abs a.(!piv_row).(c) < 1e-12 then raise Singular_basis;
    if !piv_row <> c then begin
      let tmp = a.(c) in
      a.(c) <- a.(!piv_row);
      a.(!piv_row) <- tmp;
      let tmp = inv.(c) in
      inv.(c) <- inv.(!piv_row);
      inv.(!piv_row) <- tmp
    end;
    let p = a.(c).(c) in
    let ac = a.(c) and ic = inv.(c) in
    for k = 0 to m - 1 do
      ac.(k) <- ac.(k) /. p;
      ic.(k) <- ic.(k) /. p
    done;
    for r = 0 to m - 1 do
      if r <> c && Float_cmp.nonzero a.(r).(c) then begin
        let f = a.(r).(c) in
        let ar = a.(r) and ir = inv.(r) in
        for k = 0 to m - 1 do
          ar.(k) <- ar.(k) -. (f *. ac.(k));
          ir.(k) <- ir.(k) -. (f *. ic.(k))
        done
      end
    done
  done;
  for i = 0 to m - 1 do
    Array.blit inv.(i) 0 st.binv.(i) 0 m
  done;
  recompute_xb st

(* Pivot: entering variable j (with ftran column w) replaces the basic
   variable in row position r.  Updates Binv in place. *)
let update_binv st r w =
  let m = st.m in
  let piv = w.(r) in
  let br = st.binv.(r) in
  for k = 0 to m - 1 do
    br.(k) <- br.(k) /. piv
  done;
  for i = 0 to m - 1 do
    if i <> r && Float_cmp.nonzero w.(i) then begin
      let f = w.(i) and bi = st.binv.(i) in
      for k = 0 to m - 1 do
        bi.(k) <- bi.(k) -. (f *. br.(k))
      done
    end
  done

(* ------------------------------------------------------------------ *)
(* Primal simplex iterations with cost vector [costs].                 *)
(* ------------------------------------------------------------------ *)

type primal_result = P_optimal | P_unbounded | P_iter_limit

let primal_loop st costs ~iter_limit iter_count =
  let m = st.m in
  let y = Array.make m 0. in
  let w = Array.make m 0. in
  let rho = Array.make m 0. in
  (* reduced costs, maintained incrementally (O(nnz) per pivot instead
     of an O(m^2) btran per iteration) and recomputed periodically *)
  let d = Array.make st.ntot 0. in
  let recompute_d () =
    btran st costs y;
    for j = 0 to st.ntot - 1 do
      if st.vstat.(j) <> basic then d.(j) <- costs.(j) -. col_dot st y j
      else d.(j) <- 0.
    done
  in
  recompute_d ();
  let degen = ref 0 in
  let result = ref None in
  while !result = None do
    if !iter_count >= iter_limit then result := Some P_iter_limit
    else begin
      incr iter_count;
      if !iter_count mod 4096 = 0 then begin
        recompute_xb st;
        recompute_d ()
      end;
      let bland = !degen > degen_threshold in
      (* --- pricing: choose entering variable --- *)
      let enter = ref (-1) and enter_dir = ref 1. and best = ref opt_tol in
      let consider j dj =
        let stt = st.vstat.(j) in
        if stt <> basic && st.lo.(j) < st.up.(j) then begin
          let try_dir dir score =
            if score > opt_tol then
              if bland then begin
                if !enter = -1 || j < !enter then begin
                  enter := j;
                  enter_dir := dir;
                  best := score
                end
              end
              else if score > !best then begin
                enter := j;
                enter_dir := dir;
                best := score
              end
          in
          if stt = at_lower then try_dir 1. (-.dj)
          else if stt = at_upper then try_dir (-1.) dj
          else begin
            (* free: move in the improving direction *)
            try_dir 1. (-.dj);
            try_dir (-1.) dj
          end
        end
      in
      for j = 0 to st.ntot - 1 do
        if st.vstat.(j) <> basic then consider j d.(j)
      done;
      if !enter = -1 then begin
        (* confirm with exact reduced costs before declaring optimal *)
        recompute_d ();
        let confirm = ref (-1) in
        for j = 0 to st.ntot - 1 do
          if !confirm = -1 && st.vstat.(j) <> basic && st.lo.(j) < st.up.(j)
          then begin
            let stt = st.vstat.(j) in
            if
              (stt = at_lower && d.(j) < -.opt_tol)
              || (stt = at_upper && d.(j) > opt_tol)
              || (stt = free && Float.abs d.(j) > opt_tol)
            then confirm := j
          end
        done;
        if !confirm = -1 then result := Some P_optimal
      end
      else begin
        let j = !enter and s = !enter_dir in
        ftran st j w;
        (* --- ratio test --- *)
        (* Basic value i changes at rate (-. s *. w.(i)) per unit step. *)
        let tmax = ref infinity and leave = ref (-1) and leave_to_up = ref false in
        for i = 0 to m - 1 do
          let rate = -.s *. w.(i) in
          if rate < -.pivot_tol then begin
            let lb = st.lo.(st.bas.(i)) in
            if lb > neg_infinity then begin
              let ti = (st.xb.(i) -. lb) /. -.rate in
              let ti = if ti < 0. then 0. else ti in
              if
                ti < !tmax -. 1e-12
                || (ti < !tmax +. 1e-12
                   && (!leave = -1 || Float.abs w.(i) > Float.abs w.(!leave)))
              then begin
                tmax := ti;
                leave := i;
                leave_to_up := false
              end
            end
          end
          else if rate > pivot_tol then begin
            let ub = st.up.(st.bas.(i)) in
            if ub < infinity then begin
              let ti = (ub -. st.xb.(i)) /. rate in
              let ti = if ti < 0. then 0. else ti in
              if
                ti < !tmax -. 1e-12
                || (ti < !tmax +. 1e-12
                   && (!leave = -1 || Float.abs w.(i) > Float.abs w.(!leave)))
              then begin
                tmax := ti;
                leave := i;
                leave_to_up := true
              end
            end
          end
        done;
        (* Bound-flip possibility for the entering variable itself. *)
        let range = st.up.(j) -. st.lo.(j) in
        if range < !tmax then begin
          (* flip: move to the opposite bound, no basis change *)
          let t = range in
          for i = 0 to m - 1 do
            st.xb.(i) <- st.xb.(i) -. (s *. w.(i) *. t)
          done;
          if s > 0. then begin
            st.vstat.(j) <- at_upper;
            st.xn.(j) <- st.up.(j)
          end
          else begin
            st.vstat.(j) <- at_lower;
            st.xn.(j) <- st.lo.(j)
          end;
          degen := 0
        end
        else if !leave = -1 then result := Some P_unbounded
        else begin
          let r = !leave and t = !tmax in
          if t <= 1e-10 then incr degen else degen := 0;
          let entering_value = st.xn.(j) +. (s *. t) in
          for i = 0 to m - 1 do
            if i <> r then st.xb.(i) <- st.xb.(i) -. (s *. w.(i) *. t)
          done;
          let q = st.bas.(r) in
          st.vstat.(q) <- (if !leave_to_up then at_upper else at_lower);
          st.xn.(q) <- (if !leave_to_up then st.up.(q) else st.lo.(q));
          (* incremental dual update with the pre-pivot row r of Binv:
             d'_k = d_k - (d_j / w_r) * (rho . A_k) *)
          Array.blit st.binv.(r) 0 rho 0 m;
          let theta = d.(j) /. w.(r) in
          (try update_binv st r w
           with Division_by_zero ->
             refactorize st);
          st.bas.(r) <- j;
          st.vstat.(j) <- basic;
          st.xb.(r) <- entering_value;
          if Float_cmp.nonzero theta then
            for k = 0 to st.ntot - 1 do
              if st.vstat.(k) <> basic && k <> q then
                d.(k) <- d.(k) -. (theta *. col_dot st rho k)
            done;
          d.(q) <- -.theta;
          d.(j) <- 0.
        end
      end
    end
  done;
  match !result with Some r -> r | None -> assert false

(* ------------------------------------------------------------------ *)
(* Cold start: phase 1 from the slack basis.                           *)
(* ------------------------------------------------------------------ *)

let setup_cold st =
  let n = st.n and m = st.m in
  (* structural nonbasic at the bound closest to zero *)
  for j = 0 to n - 1 do
    if st.lo.(j) > neg_infinity then begin
      st.vstat.(j) <- at_lower;
      st.xn.(j) <- st.lo.(j)
    end
    else if st.up.(j) < infinity then begin
      st.vstat.(j) <- at_upper;
      st.xn.(j) <- st.up.(j)
    end
    else begin
      st.vstat.(j) <- free;
      st.xn.(j) <- 0.
    end
  done;
  (* slacks basic, identity basis; artificials fixed nonbasic *)
  for i = 0 to m - 1 do
    st.bas.(i) <- n + i;
    st.vstat.(n + i) <- basic;
    st.lo.(n + m + i) <- 0.;
    st.up.(n + m + i) <- 0.;
    st.vstat.(n + m + i) <- at_lower;
    st.xn.(n + m + i) <- 0.;
    let bi = st.binv.(i) in
    Array.fill bi 0 m 0.;
    bi.(i) <- 1.
  done;
  recompute_xb st

(* Phase 1: replace infeasible basic slacks by artificials; returns the
   phase-1 cost vector, or None if the start is already feasible. *)
let setup_phase1 st =
  let n = st.n and m = st.m in
  let costs = Array.make st.ntot 0. in
  let needed = ref false in
  for i = 0 to m - 1 do
    let sj = n + i in
    let v = st.xb.(i) in
    if v < st.lo.(sj) -. feas_tol || v > st.up.(sj) +. feas_tol then begin
      needed := true;
      let aj = n + m + i in
      (* slack leaves to its nearest bound; artificial absorbs residual *)
      let bound = if v > st.up.(sj) then st.up.(sj) else st.lo.(sj) in
      st.vstat.(sj) <- (if v > st.up.(sj) then at_upper else at_lower);
      st.xn.(sj) <- bound;
      let residual = v -. bound in
      if residual > 0. then begin
        st.lo.(aj) <- 0.;
        st.up.(aj) <- infinity;
        costs.(aj) <- 1.
      end
      else begin
        st.lo.(aj) <- neg_infinity;
        st.up.(aj) <- 0.;
        costs.(aj) <- -1.
      end;
      st.bas.(i) <- aj;
      st.vstat.(aj) <- basic;
      st.xb.(i) <- residual
    end
  done;
  if !needed then Some costs else None

let close_phase1 st =
  let n = st.n and m = st.m in
  for i = 0 to m - 1 do
    let aj = n + m + i in
    st.lo.(aj) <- 0.;
    st.up.(aj) <- 0.;
    if st.vstat.(aj) <> basic then begin
      st.vstat.(aj) <- at_lower;
      st.xn.(aj) <- 0.
    end
  done

let phase1_obj st costs =
  let s = ref 0. in
  for i = 0 to st.m - 1 do
    let c = costs.(st.bas.(i)) in
    if Float_cmp.nonzero c then s := !s +. (c *. st.xb.(i))
  done;
  !s

let extract_solution st ~status ~iterations =
  let n = st.n and m = st.m in
  let x = Array.make n 0. in
  for j = 0 to n - 1 do
    x.(j) <- st.xn.(j)
  done;
  for i = 0 to m - 1 do
    if st.bas.(i) < n then x.(st.bas.(i)) <- st.xb.(i)
  done;
  let y = Array.make m 0. in
  btran st st.cost y;
  let reduced = Array.make n 0. in
  let bound_term = ref 0. in
  for j = 0 to n - 1 do
    let d = st.cost.(j) -. col_dot st y j in
    reduced.(j) <- d;
    if st.vstat.(j) <> basic && Float_cmp.nonzero st.xn.(j) then
      bound_term := !bound_term +. (d *. st.xn.(j))
  done;
  let obj = ref 0. in
  for j = 0 to n - 1 do
    obj := !obj +. (st.cost.(j) *. x.(j))
  done;
  st.last_status <- Some status;
  {
    status;
    obj = !obj;
    x;
    row_duals = y;
    reduced_costs = reduced;
    bound_term = !bound_term;
    iterations;
  }

let default_iter_limit st = 50_000 + (50 * (st.n + st.m))

let cold_solve ?iter_limit st =
  let iter_limit =
    match iter_limit with Some l -> l | None -> default_iter_limit st
  in
  setup_cold st;
  let iters = ref 0 in
  let phase1_failed =
    match setup_phase1 st with
    | None -> false
    | Some p1costs -> (
        match primal_loop st p1costs ~iter_limit iters with
        | P_unbounded ->
            (* phase-1 objective is bounded below by 0; treat as numeric
               trouble and refactorize once *)
            refactorize st;
            phase1_obj st p1costs > feas_tol *. 10.
        | P_iter_limit -> true
        | P_optimal -> phase1_obj st p1costs > feas_tol *. 10.)
  in
  if phase1_failed then begin
    let status =
      if !iters >= iter_limit then Iteration_limit else Infeasible
    in
    extract_solution st ~status ~iterations:!iters
  end
  else begin
    close_phase1 st;
    recompute_xb st;
    match primal_loop st st.cost ~iter_limit iters with
    | P_optimal ->
        (* polish: guard against drift of the updated inverse *)
        recompute_xb st;
        let bad = ref false in
        for i = 0 to st.m - 1 do
          let q = st.bas.(i) in
          if
            st.xb.(i) < st.lo.(q) -. (10. *. feas_tol)
            || st.xb.(i) > st.up.(q) +. (10. *. feas_tol)
          then bad := true
        done;
        if !bad then begin
          (try refactorize st with Singular_basis -> ());
          ignore (primal_loop st st.cost ~iter_limit iters)
        end;
        extract_solution st ~status:Optimal ~iterations:!iters
    | P_unbounded -> extract_solution st ~status:Unbounded ~iterations:!iters
    | P_iter_limit ->
        extract_solution st ~status:Iteration_limit ~iterations:!iters
  end

(* ------------------------------------------------------------------ *)
(* Dual simplex for RHS-only changes.                                  *)
(* ------------------------------------------------------------------ *)

type dual_result = D_optimal | D_infeasible | D_iter_limit

let dual_loop st ~iter_limit iters =
  let m = st.m in
  let rho = Array.make m 0. in
  let w = Array.make m 0. in
  let y = Array.make m 0. in
  let d = Array.make st.ntot 0. in
  let recompute_duals () =
    btran st st.cost y;
    for j = 0 to st.ntot - 1 do
      if st.vstat.(j) <> basic then d.(j) <- st.cost.(j) -. col_dot st y j
    done
  in
  recompute_duals ();
  let zero_steps = ref 0 in
  let result = ref None in
  while !result = None do
    if !iters >= iter_limit then result := Some D_iter_limit
    else begin
      incr iters;
      if !iters mod 4096 = 0 then begin
        recompute_xb st;
        recompute_duals ()
      end;
      (* --- leaving: most violated basic variable --- *)
      let r = ref (-1) and viol = ref feas_tol and above = ref false in
      for i = 0 to m - 1 do
        let q = st.bas.(i) in
        let below_v = st.lo.(q) -. st.xb.(i) in
        let above_v = st.xb.(i) -. st.up.(q) in
        if below_v > !viol then begin
          viol := below_v;
          r := i;
          above := false
        end;
        if above_v > !viol then begin
          viol := above_v;
          r := i;
          above := true
        end
      done;
      if !r = -1 then result := Some D_optimal
      else begin
        let r = !r in
        Array.blit st.binv.(r) 0 rho 0 m;
        let bland = !zero_steps > degen_threshold in
        (* --- entering: dual ratio test --- *)
        let enter = ref (-1) and best_ratio = ref infinity and best_alpha = ref 0. in
        for j = 0 to st.ntot - 1 do
          let stt = st.vstat.(j) in
          if stt <> basic && st.lo.(j) < st.up.(j) then begin
            let alpha = col_dot st rho j in
            if Float.abs alpha > pivot_tol then begin
              let candidate =
                if !above then
                  (stt = at_lower && alpha > 0.)
                  || (stt = at_upper && alpha < 0.)
                  || stt = free
                else
                  (stt = at_lower && alpha < 0.)
                  || (stt = at_upper && alpha > 0.)
                  || stt = free
              in
              if candidate then begin
                let ratio = Float.abs d.(j) /. Float.abs alpha in
                (* Bland anti-cycling still honors the dual ratio test:
                   among (near-)minimal ratios take the smallest index,
                   otherwise dual feasibility would be destroyed. *)
                let better =
                  ratio < !best_ratio -. 1e-12
                  || ratio < !best_ratio +. 1e-12
                     &&
                     if bland then !enter = -1 || j < !enter
                     else Float.abs alpha > Float.abs !best_alpha
                in
                if better then begin
                  enter := j;
                  best_ratio := Float.min ratio !best_ratio;
                  best_alpha := alpha
                end
              end
            end
          end
        done;
        if !enter = -1 then result := Some D_infeasible
        else begin
          let j = !enter in
          if !best_ratio <= 1e-10 then incr zero_steps else zero_steps := 0;
          let alpha_j = !best_alpha in
          let q = st.bas.(r) in
          let target = if !above then st.up.(q) else st.lo.(q) in
          let delta = (st.xb.(r) -. target) /. alpha_j in
          ftran st j w;
          for i = 0 to m - 1 do
            if i <> r then st.xb.(i) <- st.xb.(i) -. (w.(i) *. delta)
          done;
          st.vstat.(q) <- (if !above then at_upper else at_lower);
          st.xn.(q) <- target;
          update_binv st r w;
          st.bas.(r) <- j;
          st.vstat.(j) <- basic;
          st.xb.(r) <- st.xn.(j) +. delta;
          (* update duals: d'_k = d_k - (d_j/alpha_j) * alpha_k *)
          let theta = d.(j) /. alpha_j in
          if Float_cmp.nonzero theta then begin
            for k = 0 to st.ntot - 1 do
              if st.vstat.(k) <> basic then begin
                let alpha_k = col_dot st rho k in
                d.(k) <- d.(k) -. (theta *. alpha_k)
              end
            done
          end;
          d.(q) <- -.theta;
          d.(j) <- 0.
        end
      end
    end
  done;
  match !result with Some r -> r | None -> assert false

(* A posteriori optimality check for the dual simplex: the final basis
   must be dual feasible under exactly-recomputed reduced costs.  If
   drift broke it, fall back to a cold solve rather than return a
   primal-feasible but suboptimal point. *)
let dual_feasible st =
  let y = Array.make st.m 0. in
  btran st st.cost y;
  let ok = ref true in
  for j = 0 to st.ntot - 1 do
    if !ok && st.vstat.(j) <> basic && st.lo.(j) < st.up.(j) then begin
      let d = st.cost.(j) -. col_dot st y j in
      if st.vstat.(j) = at_lower && d < -1e-6 then ok := false
      else if st.vstat.(j) = at_upper && d > 1e-6 then ok := false
      else if st.vstat.(j) = free && Float.abs d > 1e-6 then ok := false
    end
  done;
  !ok

let resolve_rhs ?iter_limit st rhs =
  if Array.length rhs <> st.m then invalid_arg "Simplex.resolve_rhs";
  Array.blit rhs 0 st.b 0 st.m;
  let iter_limit =
    match iter_limit with Some l -> l | None -> default_iter_limit st
  in
  let cold () = cold_solve ~iter_limit st in
  match st.last_status with
  | Some Optimal -> (
      recompute_xb st;
      let iters = ref 0 in
      match dual_loop st ~iter_limit iters with
      | D_optimal ->
          if dual_feasible st then
            extract_solution st ~status:Optimal ~iterations:!iters
          else begin
            Log.debug (fun m ->
                m "dual simplex drifted out of dual feasibility; cold re-solve");
            cold ()
          end
      | D_infeasible ->
          (* confirm with a cold solve to guard against numerics *)
          let sol = cold () in
          if sol.status = Optimal then sol
          else
            (* the warm dual correctly proved infeasibility *)
            extract_solution st ~status:Infeasible ~iterations:!iters
      | D_iter_limit -> cold ())
  | _ -> cold ()

let extend st model =
  let st2 = make model in
  if st2.n <> st.n || st2.m < st.m then
    invalid_arg "Simplex.extend: model must only gain rows";
  match st.last_status with
  | Some Optimal -> (
      let remap j =
        if j < st.n then j
        else if j < st.n + st.m then st2.n + (j - st.n)
        else st2.n + st2.m + (j - st.n - st.m)
      in
      for j = 0 to st.n - 1 do
        st2.vstat.(j) <- st.vstat.(j);
        st2.xn.(j) <- st.xn.(j)
      done;
      for i = 0 to st.m - 1 do
        let os = st.n + i and oa = st.n + st.m + i in
        st2.vstat.(remap os) <- st.vstat.(os);
        st2.xn.(remap os) <- st.xn.(os);
        st2.vstat.(remap oa) <- at_lower;
        st2.xn.(remap oa) <- 0.
      done;
      for i = 0 to st.m - 1 do
        let b = remap st.bas.(i) in
        st2.bas.(i) <- b;
        st2.vstat.(b) <- basic
      done;
      for i = st.m to st2.m - 1 do
        st2.bas.(i) <- st2.n + i;
        st2.vstat.(st2.n + i) <- basic
      done;
      (* Block inverse: with the new rows' slacks basic the basis is
         B' = [[B, 0], [C, I]], so B'^-1 = [[B^-1, 0], [-C B^-1, I]]
         where C is the new rows' coefficients on the old basic
         columns (all structural: old slacks never appear in new
         rows). *)
      let pos_of_var = Array.make st.n (-1) in
      for i = 0 to st.m - 1 do
        if st.bas.(i) < st.n then pos_of_var.(st.bas.(i)) <- i
      done;
      for i = 0 to st.m - 1 do
        let src = st.binv.(i) and dst = st2.binv.(i) in
        Array.fill dst 0 st2.m 0.;
        Array.blit src 0 dst 0 st.m
      done;
      for r = st.m to st2.m - 1 do
        let dst = st2.binv.(r) in
        Array.fill dst 0 st2.m 0.;
        List.iter
          (fun (j, a) ->
            if j < st.n && pos_of_var.(j) >= 0 then begin
              let bk = st.binv.(pos_of_var.(j)) in
              for t = 0 to st.m - 1 do
                dst.(t) <- dst.(t) -. (a *. bk.(t))
              done
            end)
          (Lp_model.row_coeffs model r);
        dst.(r) <- 1.
      done;
      recompute_xb st2;
      (* same costs, appended basic slacks: the old duals remain
         feasible, so flag the state warm for the dual simplex *)
      st2.last_status <- Some Optimal;
      st2)
  | _ -> st2

let solve ?iter_limit model =
  let st = make model in
  let sol = cold_solve ?iter_limit st in
  (if sol.status = Optimal then
     let viol = Lp_model.max_violation model sol.x in
     if viol > 1e-5 then
       Log.warn (fun m ->
           m "solution of %s violates constraints by %g"
             (Lp_model.name model) viol));
  sol
