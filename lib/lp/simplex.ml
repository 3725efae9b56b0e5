(* Two-phase bounded-variable revised primal simplex + dual simplex.

   Computational form: the model's rows are turned into equalities
   [A x + s = b] by adding one slack per row (coefficient +1) whose
   bounds encode the row sense:
     Le -> s in [0, +inf)    Ge -> s in (-inf, 0]    Eq -> s in [0, 0]
   One artificial column per row (also coefficient +1, so the basis
   matrix is unchanged when an artificial replaces its slack) supports
   the phase-1 start; artificials are fixed to [0,0] in phase 2.

   Variable layout: [0, n) structural, [n, n+m) slacks,
   [n+m, n+2m) artificials.

   The basis is held LU-factorized ([Sparse.Basis]: Markowitz-ordered
   factorization, threshold partial pivoting) and advanced by
   product-form eta updates per pivot; FTRAN/BTRAN run through the
   factors, and refactorization is triggered by the eta-file length or
   a too-small eta pivot.  Pricing is devex with partial pricing over
   static candidate sections, falling back to Bland's rule under
   degeneracy.  The frozen pre-sparse solver survives as
   [Simplex_dense]; setting FLEXILE_DENSE_SIMPLEX=1 routes this module
   through it (the differential tests compare the two paths). *)

let feas_tol = 1e-7
let opt_tol = 1e-7
let pivot_tol = 1e-9
let degen_threshold = 120
let src = Logs.Src.create "flexile.lp" ~doc:"LP solver"

module Log = (val Logs.src_log src : Logs.LOG)
module Trace = Flexile_util.Trace
module Float_cmp = Flexile_util.Float_cmp
module Basis = Sparse.Basis

(* Probes are per-solve or per-refactorization, never per-pivot: with
   tracing disabled each costs one branch, with it enabled one
   domain-local array write. *)
let c_cold_solves = Trace.counter "simplex.cold_solves"
let sp_solve = Trace.span "simplex.solve"
let sp_resolve = Trace.span "simplex.resolve_rhs"
let c_iterations = Trace.counter "simplex.iterations"
let c_refactorizations = Trace.counter "simplex.refactorizations"
let c_warm_attempts = Trace.counter "simplex.warm_attempts"
let c_warm_hits = Trace.counter "simplex.warm_hits"
let c_warm_fallbacks = Trace.counter "simplex.warm_fallbacks"
let h_iterations = Trace.hist "simplex.iterations_per_solve"
let t_factor = Trace.timer "simplex.factor"
let c_eta_updates = Trace.counter "simplex.eta_updates"
let c_basis_repairs = Trace.counter "simplex.basis_repairs"
let h_eta_at_refactor = Trace.hist "simplex.eta_len_at_refactor"

(* Phase tags reported to the health observatory (Health.sample.s_phase
   and the stall notes).  Integers, not a variant, because they cross
   the Health interface and land in JSON reports. *)
let phase_setup = 0
let phase_primal1 = 1
let phase_primal2 = 2
let phase_dual = 3

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

type sp = {
  n : int;
  m : int;
  ntot : int;
  model : Lp_model.t;
      (* re-read by [sync_model] (bounds, RHS, costs) and captured by
         health snapshots; the matrix is fixed at [make_sp] *)
  csc : Lp_model.csc;
  lo : float array;
  up : float array;
  cost : float array; (* phase-2 costs over ntot *)
  b : float array; (* current rhs *)
  vstat : int array;
  bas : int array; (* length m *)
  basis : Basis.t;
  xb : float array;
  xn : float array; (* bound value of each nonbasic variable *)
  mutable last_status : status option;
  (* persistent workspaces: the pivot loops allocate nothing *)
  w : float array; (* FTRAN column, length m *)
  rho : float array; (* BTRAN row of B^-1, length m *)
  y : float array; (* row duals, length m *)
  bt : float array; (* recompute_xb scratch, length m *)
  (* CSR mirror of the structural columns, for pivot-row products
     (the model's cached row view, shared and never written) *)
  row_start : int array; (* length m+1 *)
  row_col : int array;
  row_val : float array;
  asv : Sparse.Svec.t; (* alpha = A^T rho scatter, dimension ntot *)
  d : float array; (* reduced costs over ntot *)
  mutable d_valid : bool;
      (* [d] holds phase-2 reduced costs of the current basis, kept
         exact by the optimality confirmation and maintained by the
         dual pivots — lets a warm [resolve_rhs] skip the full rebuild *)
  gamma : float array; (* devex reference weights over ntot *)
  sec_size : int; (* partial-pricing section length *)
  nsec : int;
  mutable psec : int; (* cyclic pricing cursor *)
  (* numerical health observatory (DESIGN.md section 15) *)
  health : Health.state;
  mutable hphase : int; (* phase_setup/_primal1/_primal2/_dual *)
  mutable hiter : int; (* iteration count at the last loop step *)
}

let slack_bounds sense =
  match sense with
  | Lp_model.Le -> (0., infinity)
  | Lp_model.Ge -> (neg_infinity, 0.)
  | Lp_model.Eq -> (0., 0.)

let eta_limit_env () =
  match Sys.getenv_opt "FLEXILE_ETA_LIMIT" with
  | Some s -> int_of_string_opt s
  | None -> None

let make_sp ?eta_limit ?thresholds model =
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
  let sec_size = max 256 ((ntot + 7) / 8) in
  let nsec = max 1 ((ntot + sec_size - 1) / sec_size) in
  let csr = Lp_model.csr model in
  let eta_limit =
    match eta_limit with Some _ as l -> l | None -> eta_limit_env ()
  in
  {
    n;
    m;
    ntot;
    model;
    csc = Lp_model.csc model;
    lo;
    up;
    cost;
    b;
    vstat = Array.make ntot at_lower;
    bas = Array.make m 0;
    basis = Basis.create ?eta_limit m;
    xb = Array.make m 0.;
    xn = Array.make ntot 0.;
    last_status = None;
    w = Array.make m 0.;
    rho = Array.make m 0.;
    y = Array.make m 0.;
    bt = Array.make m 0.;
    row_start = csr.Lp_model.row_start;
    row_col = csr.Lp_model.col_idx;
    row_val = csr.Lp_model.row_values;
    asv = Sparse.Svec.create ntot;
    d = Array.make ntot 0.;
    d_valid = false;
    gamma = Array.make ntot 1.;
    sec_size;
    nsec;
    psec = 0;
    health = Health.make ?thresholds m;
    hphase = phase_setup;
    hiter = 0;
  }

(* Threshold trip -> reproducible snapshot (model + basis + variable
   statuses + trip metadata), so the failing LP can be replayed by
   [flexile doctor --from-dump].  Gated on FLEXILE_HEALTH_DUMP inside
   [Health.write_dump]; the copies happen only on a trip. *)
let dump_on_trip st reasons =
  match Health.dump_dir () with
  | None -> ()
  | Some _ ->
      ignore
        (Health.write_dump
           {
             Health.d_reasons = reasons;
             d_phase = st.hphase;
             d_iteration = st.hiter;
             d_eta_limit = eta_limit_env ();
             d_model = st.model;
             d_basis = Array.copy st.bas;
             d_vstat = Array.copy st.vstat;
           })

let make_sp ?eta_limit ?thresholds model =
  let st = make_sp ?eta_limit ?thresholds model in
  Health.set_on_trip st.health (dump_on_trip st);
  st

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

(* w := B^-1 A_j (FTRAN through the factors + eta file). *)
let ftran st j w =
  Array.fill w 0 st.m 0.;
  col_iter st j (fun r a -> w.(r) <- w.(r) +. a);
  Basis.ftran st.basis w

(* y := costs_B B^-1 (BTRAN). *)
let[@lint.noalloc] btran st costs y =
  for k = 0 to st.m - 1 do
    y.(k) <- costs.(st.bas.(k))
  done;
  Basis.btran st.basis y

(* asv := A^T rho over every column (structural via the CSR mirror,
   slack and artificial unit columns directly), visiting only the rows
   where [rho] is nonzero.  This is the pivot-row product the pricing
   updates and the dual ratio test need; iterating its pattern instead
   of all [ntot] columns is what makes a pivot cost proportional to
   the pivot row's fill. *)
let[@lint.noalloc] scatter_alpha st rho =
  let sv = st.asv in
  Sparse.Svec.clear sv;
  for i = 0 to st.m - 1 do
    let ri = rho.(i) in
    if Float_cmp.nonzero ri then begin
      for c = st.row_start.(i) to st.row_start.(i + 1) - 1 do
        Sparse.Svec.add sv st.row_col.(c) (ri *. st.row_val.(c))
      done;
      Sparse.Svec.add sv (st.n + i) ri;
      Sparse.Svec.add sv (st.n + st.m + i) ri
    end
  done

(* Recompute basic values from scratch:
   xb = B^-1 (b - sum_{nonbasic j} A_j xn_j). *)
let recompute_xb st =
  Array.blit st.b 0 st.bt 0 st.m;
  for j = 0 to st.ntot - 1 do
    if st.vstat.(j) <> basic && Float_cmp.nonzero st.xn.(j) then
      col_iter st j (fun i a -> st.bt.(i) <- st.bt.(i) -. (a *. st.xn.(j)))
  done;
  Basis.ftran st.basis st.bt;
  Array.blit st.bt 0 st.xb 0 st.m

(* ------------------------------------------------------------------ *)
(* Health sampling (DESIGN.md section 15): per-refactorization plus    *)
(* one sample at extraction, so the pivot loops stay noalloc and the   *)
(* answer basis is always measured even when no refactorization fired  *)
(* mid-solve (small LPs rarely exhaust the eta limit).                 *)
(* ------------------------------------------------------------------ *)

let health_active st = Trace.enabled () || Health.capture st.health

(* Eta-file epoch stats, read *before* [Basis.factor] resets them. *)
let eta_epoch_of st =
  let b = st.basis in
  {
    Health.ee_len = Basis.eta_count b;
    ee_nnz = Basis.eta_nnz b;
    ee_rejections = Basis.eta_rejections b;
    ee_growth = Basis.eta_growth b;
    ee_min_diag = Basis.eta_min_diag b;
  }

let health_sample st ~kind ~eta ~patched =
  if Health.sample_due st.health then begin
  (* row-space b~ = b - N x_N into the scratch [bt] (recompute_xb uses
     the same accumulation but immediately FTRANs it away) *)
  Array.blit st.b 0 st.bt 0 st.m;
  for j = 0 to st.ntot - 1 do
    if st.vstat.(j) <> basic && Float_cmp.nonzero st.xn.(j) then
      col_iter st j (fun i a -> st.bt.(i) <- st.bt.(i) -. (a *. st.xn.(j)))
  done;
  Health.sample st.health ~basis:st.basis ~kind ~phase:st.hphase
    ~iteration:st.hiter
    ~col:(fun pos f -> col_iter st st.bas.(pos) f)
    ~cb:(fun pos -> st.cost.(st.bas.(pos)))
    ~btilde:st.bt ~xb:st.xb ~eta ~patched
  end

(* Rebuild the LU factorization of the recorded basis.  A singular or
   numerically dependent basis is not an error: [Basis.factor] patches
   the dependent positions with slack unit columns and we repair the
   recorded basis to match (the evicted variable goes to a bound), then
   let the simplex iterate onward from the repaired point. *)
let refactorize st =
  Trace.incr c_refactorizations;
  Trace.observe h_eta_at_refactor (float_of_int (Basis.eta_count st.basis));
  let active = health_active st in
  let eta = if active then eta_epoch_of st else Health.empty_epoch in
  let patched =
    Trace.with_span t_factor @@ fun () ->
    Basis.factor st.basis ~col:(fun pos f -> col_iter st st.bas.(pos) f)
  in
  List.iter
    (fun (pos, row) ->
      Trace.incr c_basis_repairs;
      let q = st.bas.(pos) in
      if st.lo.(q) > neg_infinity then begin
        st.vstat.(q) <- at_lower;
        st.xn.(q) <- st.lo.(q)
      end
      else if st.up.(q) < infinity then begin
        st.vstat.(q) <- at_upper;
        st.xn.(q) <- st.up.(q)
      end
      else begin
        st.vstat.(q) <- free;
        st.xn.(q) <- 0.
      end;
      (* row was unpivoted, so its slack cannot currently be basic *)
      let s = st.n + row in
      st.bas.(pos) <- s;
      st.vstat.(s) <- basic)
    patched;
  recompute_xb st;
  if patched <> [] then st.d_valid <- false;
  if active then health_sample st ~kind:Health.Refactor ~eta ~patched;
  patched <> []

(* Append the pivot (entering column image [w], leaving position [r])
   to the eta file; on a numerically hopeless eta pivot rebuild the
   factorization of the already-updated recorded basis instead.
   Returns true when the basis was repaired (duals must be rebuilt). *)
let update_basis st r =
  if Basis.update st.basis ~r ~w:st.w then begin
    Trace.incr c_eta_updates;
    if Basis.needs_refactor st.basis then refactorize st else false
  end
  else refactorize st

(* ------------------------------------------------------------------ *)
(* Primal simplex iterations with cost vector [costs].                 *)
(* ------------------------------------------------------------------ *)

type primal_result = P_optimal | P_unbounded | P_iter_limit

let primal_loop st costs ~iter_limit iter_count =
  let m = st.m in
  let y = st.y and w = st.w and rho = st.rho in
  (* reduced costs, maintained incrementally (O(nnz) per pivot instead
     of a BTRAN per iteration) and recomputed periodically; devex
     weights reset whenever the reduced costs are rebuilt exactly *)
  let d = st.d and gamma = st.gamma in
  let recompute_d () =
    btran st costs y;
    for j = 0 to st.ntot - 1 do
      if st.vstat.(j) <> basic then d.(j) <- costs.(j) -. col_dot st y j
      else d.(j) <- 0.;
      gamma.(j) <- 1.
    done
  in
  st.d_valid <- false;
  recompute_d ();
  let degen = ref 0 in
  (* stall detection: longest run of zero-step ratio tests and the
     Bland dwell, one integer compare per iteration (DESIGN.md s15) *)
  let stall_lim = (Health.thresholds st.health).Health.stall_limit in
  let iters0 = !iter_count in
  let max_run = ref 0 and bland_iters = ref 0 in
  let result = ref None in
  while !result = None do
    if !iter_count >= iter_limit then result := Some P_iter_limit
    else begin
      incr iter_count;
      st.hiter <- !iter_count;
      if !iter_count mod 4096 = 0 then begin
        recompute_xb st;
        recompute_d ()
      end;
      let bland = !degen > degen_threshold in
      if bland then incr bland_iters;
      (* --- pricing: choose entering variable --- *)
      let enter = ref (-1) and enter_dir = ref 1. and best = ref 0. in
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
              else begin
                (* devex: steepest reduced cost in the reference frame *)
                let dscore = score *. score /. gamma.(j) in
                if dscore > !best then begin
                  enter := j;
                  enter_dir := dir;
                  best := dscore
                end
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
      if bland then
        for j = 0 to st.ntot - 1 do
          if st.vstat.(j) <> basic then consider j d.(j)
        done
      else begin
        (* partial pricing: cyclic scan of static sections, stopping at
           the first section that yields a candidate *)
        let scanned = ref 0 in
        while !enter = -1 && !scanned < st.nsec do
          let s0 = (st.psec + !scanned) mod st.nsec in
          let jhi = min st.ntot ((s0 + 1) * st.sec_size) - 1 in
          for j = s0 * st.sec_size to jhi do
            if st.vstat.(j) <> basic then consider j d.(j)
          done;
          (* advance the cursor past the section that produced the
             candidate: sticking to a section while it keeps yielding
             (degenerate) candidates starves the rest of the matrix and
             stalls phase 1 on massively degenerate vertices *)
          if !enter <> -1 then st.psec <- (s0 + 1) mod st.nsec;
          incr scanned
        done
      end;
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
        (* Basic value i changes at rate (-. s *. w.(i)) per unit step.
           Ties are normally broken toward the largest pivot magnitude
           (stability); under the Bland fallback they must be broken by
           smallest leaving variable index instead — Bland's rule only
           guarantees termination when BOTH the entering and the leaving
           choice use the smallest-index rule. *)
        let tmax = ref infinity and leave = ref (-1) and leave_to_up = ref false in
        let better i ti =
          ti < !tmax -. 1e-12
          || ti < !tmax +. 1e-12
             && (!leave = -1
                ||
                if bland then st.bas.(i) < st.bas.(!leave)
                else Float.abs w.(i) > Float.abs w.(!leave))
        in
        for i = 0 to m - 1 do
          let rate = -.s *. w.(i) in
          if rate < -.pivot_tol then begin
            let lb = st.lo.(st.bas.(i)) in
            if lb > neg_infinity then begin
              let ti = (st.xb.(i) -. lb) /. -.rate in
              let ti = if ti < 0. then 0. else ti in
              if better i ti then begin
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
              if better i ti then begin
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
          if t <= 1e-10 then begin
            incr degen;
            if !degen > !max_run then max_run := !degen;
            if !degen = stall_lim then
              Health.note_stall st.health ~phase:st.hphase
                ~iteration:!iter_count ~run:!degen
          end
          else degen := 0;
          let entering_value = st.xn.(j) +. (s *. t) in
          for i = 0 to m - 1 do
            if i <> r then st.xb.(i) <- st.xb.(i) -. (s *. w.(i) *. t)
          done;
          let q = st.bas.(r) in
          st.vstat.(q) <- (if !leave_to_up then at_upper else at_lower);
          st.xn.(q) <- (if !leave_to_up then st.up.(q) else st.lo.(q));
          (* incremental dual/devex update with the pre-pivot row r of
             B^-1: d'_k = d_k - (d_j / w_r) (rho . A_k) and
             gamma'_k = max(gamma_k, (alpha_k / w_r)^2 gamma_j) *)
          Basis.btran_unit st.basis r rho;
          let alpha_j = w.(r) in
          let theta = d.(j) /. alpha_j in
          let gscale = gamma.(j) /. (alpha_j *. alpha_j) in
          st.bas.(r) <- j;
          st.vstat.(j) <- basic;
          st.xb.(r) <- entering_value;
          let repaired = update_basis st r in
          if repaired then begin
            recompute_xb st;
            recompute_d ()
          end
          else begin
            scatter_alpha st rho;
            Sparse.Svec.iter st.asv (fun k alpha_k ->
                if st.vstat.(k) <> basic && k <> q
                   && Float_cmp.nonzero alpha_k
                then begin
                  if Float_cmp.nonzero theta then
                    d.(k) <- d.(k) -. (theta *. alpha_k);
                  let cand = alpha_k *. alpha_k *. gscale in
                  if cand > gamma.(k) then gamma.(k) <- cand
                end);
            d.(q) <- -.theta;
            gamma.(q) <- Float.max gscale 1.;
            d.(j) <- 0.
          end
        end
      end
    end
  done;
  (* the optimal exit passed the exact confirmation, so for phase-2
     costs [d] is the exact reduced-cost vector of the final basis *)
  (match !result with
  | Some P_optimal when costs == st.cost -> st.d_valid <- true
  | _ -> ());
  Health.note_loop_end st.health ~phase:st.hphase
    ~iterations:(!iter_count - iters0) ~max_run:!max_run ~bland:!bland_iters;
  match !result with Some r -> r | None -> assert false

(* ------------------------------------------------------------------ *)
(* Cold start: phase 1 from the slack basis.                           *)
(* ------------------------------------------------------------------ *)

let setup_cold st =
  st.hphase <- phase_setup;
  st.hiter <- 0;
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
  (* slacks basic (identity basis, factored trivially with no
     patches); artificials fixed nonbasic *)
  for i = 0 to m - 1 do
    st.bas.(i) <- n + i;
    st.vstat.(n + i) <- basic;
    st.lo.(n + m + i) <- 0.;
    st.up.(n + m + i) <- 0.;
    st.vstat.(n + m + i) <- at_lower;
    st.xn.(n + m + i) <- 0.
  done;
  st.psec <- 0;
  ignore (refactorize st)

(* Phase 1: replace infeasible basic slacks by artificials; returns the
   phase-1 cost vector, or None if the start is already feasible.  The
   slack -> artificial swap keeps the basis matrix (and hence the LU
   factorization) unchanged: both are the unit column of their row. *)
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
  Trace.add c_iterations iterations;
  Trace.observe h_iterations (float_of_int iterations);
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

(* Extraction with a final health sample: small LPs rarely exhaust the
   eta limit mid-solve, so without this the observatory would only ever
   see the trivial slack basis of [setup_cold].  The *answer* basis is
   the one whose residuals and conditioning decide whether the solution
   can be trusted. *)
let finish_solve st ~status ~iterations =
  if health_active st then
    health_sample st ~kind:Health.Final ~eta:(eta_epoch_of st) ~patched:[];
  extract_solution st ~status ~iterations

let default_iter_limit st = 50_000 + (50 * (st.n + st.m))
let iter_limit_of st = function Some l -> l | None -> default_iter_limit st

let primal_feasible ~tol st =
  let ok = ref true in
  for i = 0 to st.m - 1 do
    let q = st.bas.(i) in
    if st.xb.(i) < st.lo.(q) -. tol || st.xb.(i) > st.up.(q) +. tol then
      ok := false
  done;
  !ok

(* Phase 2 from a primal feasible basis, then a polish pass that guards
   against drift of the updated factors. *)
let primal_phase2 ~iter_limit st iters =
  st.hphase <- phase_primal2;
  match primal_loop st st.cost ~iter_limit iters with
  | P_optimal ->
      recompute_xb st;
      if not (primal_feasible ~tol:(10. *. feas_tol) st) then begin
        ignore (refactorize st);
        ignore (primal_loop st st.cost ~iter_limit iters)
      end;
      Optimal
  | P_unbounded -> Unbounded
  | P_iter_limit -> Iteration_limit

let cold_solve ?iter_limit st =
  Trace.incr c_cold_solves;
  let iter_limit = iter_limit_of st iter_limit in
  setup_cold st;
  let iters = ref 0 in
  let phase1_failed =
    match setup_phase1 st with
    | None -> false
    | Some p1costs -> (
        st.hphase <- phase_primal1;
        match primal_loop st p1costs ~iter_limit iters with
        | P_unbounded ->
            (* phase-1 objective is bounded below by 0; treat as numeric
               trouble and refactorize once *)
            ignore (refactorize st);
            phase1_obj st p1costs > feas_tol *. 10.
        | P_iter_limit -> true
        | P_optimal -> phase1_obj st p1costs > feas_tol *. 10.)
  in
  if phase1_failed then begin
    let status =
      if !iters >= iter_limit then Iteration_limit else Infeasible
    in
    finish_solve st ~status ~iterations:!iters
  end
  else begin
    close_phase1 st;
    recompute_xb st;
    let status = primal_phase2 ~iter_limit st iters in
    finish_solve st ~status ~iterations:!iters
  end

(* ------------------------------------------------------------------ *)
(* Dual simplex for restarts after bound and RHS changes.              *)
(* ------------------------------------------------------------------ *)

type dual_result = D_optimal | D_infeasible | D_iter_limit

(* Exact phase-2 reduced costs of the nonbasic variables into [d]. *)
let exact_duals st =
  btran st st.cost st.y;
  for j = 0 to st.ntot - 1 do
    if st.vstat.(j) <> basic then st.d.(j) <- st.cost.(j) -. col_dot st st.y j
  done;
  st.d_valid <- true

(* Whether nonbasic [j] with reduced cost [d] is dual feasible: a fixed
   variable always is, otherwise the sign must match its bound. *)
let dual_sign_ok st j d =
  if st.lo.(j) >= st.up.(j) then true
  else
    let s = st.vstat.(j) in
    if s = at_lower then d >= -1e-6
    else if s = at_upper then d <= 1e-6
    else if s = free then Float.abs d <= 1e-6
    else true

let dual_loop st ~iter_limit iters =
  let m = st.m in
  let rho = st.rho and w = st.w in
  let d = st.d in
  let recompute_duals () = exact_duals st in
  (* a warm restart from an optimal basis inherits its exact reduced
     costs; rebuild only when the basis has moved under us *)
  if not st.d_valid then recompute_duals ();
  let zero_steps = ref 0 in
  let stall_lim = (Health.thresholds st.health).Health.stall_limit in
  let iters0 = !iters in
  let max_run = ref 0 and bland_iters = ref 0 in
  let result = ref None in
  while !result = None do
    if !iters >= iter_limit then result := Some D_iter_limit
    else begin
      incr iters;
      st.hiter <- !iters;
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
        Basis.btran_unit st.basis r rho;
        (* pivot-row entries alpha_k = rho . A_k; only columns in the
           scatter pattern can pass the pivot tolerance, so the ratio
           test and the dual update below visit just the pattern *)
        scatter_alpha st rho;
        let bland = !zero_steps > degen_threshold in
        if bland then incr bland_iters;
        (* --- entering: dual ratio test --- *)
        let enter = ref (-1) and best_ratio = ref infinity and best_alpha = ref 0. in
        Sparse.Svec.iter st.asv (fun j alpha ->
            let stt = st.vstat.(j) in
            if stt <> basic && st.lo.(j) < st.up.(j)
               && Float.abs alpha > pivot_tol
            then begin
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
            end);
        if !enter = -1 then result := Some D_infeasible
        else begin
          let j = !enter in
          if !best_ratio <= 1e-10 then begin
            incr zero_steps;
            if !zero_steps > !max_run then max_run := !zero_steps;
            if !zero_steps = stall_lim then
              Health.note_stall st.health ~phase:st.hphase ~iteration:!iters
                ~run:!zero_steps
          end
          else zero_steps := 0;
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
          st.bas.(r) <- j;
          st.vstat.(j) <- basic;
          st.xb.(r) <- st.xn.(j) +. delta;
          let theta = d.(j) /. alpha_j in
          let repaired = update_basis st r in
          if repaired then begin
            recompute_xb st;
            recompute_duals ()
          end
          else begin
            (* update duals: d'_k = d_k - (d_j/alpha_j) * alpha_k *)
            if Float_cmp.nonzero theta then
              Sparse.Svec.iter st.asv (fun k alpha_k ->
                  if st.vstat.(k) <> basic then
                    d.(k) <- d.(k) -. (theta *. alpha_k));
            d.(q) <- -.theta;
            d.(j) <- 0.
          end
        end
      end
    end
  done;
  Health.note_loop_end st.health ~phase:st.hphase
    ~iterations:(!iters - iters0) ~max_run:!max_run ~bland:!bland_iters;
  match !result with Some r -> r | None -> assert false

(* A posteriori optimality check for the dual simplex: the final basis
   must be dual feasible under exactly-recomputed reduced costs.  If
   drift broke it, fall back to a cold solve rather than return a
   primal-feasible but suboptimal point. *)
let nonbasic_signs_ok st d_of =
  let ok = ref true in
  for j = 0 to st.ntot - 1 do
    if !ok && st.vstat.(j) <> basic then ok := dual_sign_ok st j (d_of j)
  done;
  !ok

let dual_feasible st =
  btran st st.cost st.y;
  nonbasic_signs_ok st (fun j -> st.cost.(j) -. col_dot st st.y j)

(* Exact reduced costs of a basis whose duals are not maintained (fresh
   from [extend] or [make ~basis], or after a cost change), checked for
   dual feasibility. *)
let dual_start_ok st =
  exact_duals st;
  nonbasic_signs_ok st (fun j -> st.d.(j))

(* A warm success: sampled only under elevated instrumentation, since
   sampling every restart would tax the sweep hot path for little
   signal. *)
let warm_hit st ~status ~iterations =
  Trace.incr c_warm_hits;
  if Health.capture st.health then
    health_sample st ~kind:Health.Final ~eta:(eta_epoch_of st) ~patched:[];
  extract_solution st ~status ~iterations

(* Re-optimize from the last optimal basis after any change of bounds,
   RHS or costs.  A dual feasible basis restarts the dual simplex (the
   usual case: bounds and RHS moved, costs did not); a basis that only
   lost dual feasibility but is still primal feasible restarts primal
   phase 2; anything else, and every failed restart, falls back to a
   cold solve of the same state. *)
let restart_sp ~iter_limit st =
  let cold () = cold_solve ~iter_limit st in
  let fallback () =
    Trace.incr c_warm_fallbacks;
    cold ()
  in
  match st.last_status with
  | Some Optimal ->
      Trace.incr c_warm_attempts;
      recompute_xb st;
      let iters = ref 0 in
      if st.d_valid || dual_start_ok st then begin
        st.hphase <- phase_dual;
        match dual_loop st ~iter_limit iters with
        | D_optimal ->
            if dual_feasible st then warm_hit st ~status:Optimal ~iterations:!iters
            else begin
              Health.note_dual_guard_trip ();
              Log.debug (fun m ->
                  m "dual simplex drifted out of dual feasibility; cold re-solve");
              fallback ()
            end
        | D_infeasible ->
            (* confirm with a cold solve to guard against numerics *)
            let sol = cold () in
            if sol.status = Optimal then begin
              Trace.incr c_warm_fallbacks;
              sol
            end
            else begin
              (* the warm dual correctly proved infeasibility *)
              Trace.incr c_warm_hits;
              extract_solution st ~status:Infeasible ~iterations:!iters
            end
        | D_iter_limit -> fallback ()
      end
      else if primal_feasible ~tol:feas_tol st then begin
        match primal_phase2 ~iter_limit st iters with
        | Optimal -> warm_hit st ~status:Optimal ~iterations:!iters
        | _ -> fallback ()
      end
      else fallback ()
  | _ -> cold ()

let resolve_rhs_sp ?iter_limit st rhs =
  if Array.length rhs <> st.m then invalid_arg "Simplex.resolve_rhs";
  Array.blit rhs 0 st.b 0 st.m;
  restart_sp ~iter_limit:(iter_limit_of st iter_limit) st

(* Put nonbasic [j] on a finite bound, keeping its side when that bound
   is still finite.  Returns whether the side changed. *)
let place_nonbasic st j =
  let s = st.vstat.(j) in
  let s' =
    if s = at_lower && st.lo.(j) > neg_infinity then at_lower
    else if s = at_upper && st.up.(j) < infinity then at_upper
    else if st.lo.(j) > neg_infinity then at_lower
    else if st.up.(j) < infinity then at_upper
    else free
  in
  st.vstat.(j) <- s';
  st.xn.(j) <-
    (if s' = at_lower then st.lo.(j) else if s' = at_upper then st.up.(j) else 0.);
  s' <> s

(* Re-read the structural bounds, the RHS and the costs from the model.
   Reduced costs stay valid under bound and RHS changes unless a
   nonbasic variable changes side or stops being fixed (its reduced
   cost then has to be checked again), and never under cost changes. *)
let sync_model st =
  let model = st.model in
  for j = 0 to st.n - 1 do
    let c = Lp_model.obj_coef model j in
    if not (Float.equal c st.cost.(j)) then begin
      st.cost.(j) <- c;
      st.d_valid <- false
    end;
    let lo = Lp_model.lb model j and up = Lp_model.ub model j in
    if not (Float.equal lo st.lo.(j) && Float.equal up st.up.(j)) then begin
      let was_fixed = st.lo.(j) >= st.up.(j) in
      st.lo.(j) <- lo;
      st.up.(j) <- up;
      if st.vstat.(j) <> basic && (place_nonbasic st j || was_fixed) then
        st.d_valid <- false
    end
  done;
  for i = 0 to st.m - 1 do
    st.b.(i) <- Lp_model.rhs model i
  done

(* An optimal basis, copied out of a solver state. *)
type basis = { b_bas : int array; b_vstat : int array }

let basis_sp st =
  match st.last_status with
  | Some Optimal -> Some { b_bas = Array.copy st.bas; b_vstat = Array.copy st.vstat }
  | _ -> None

(* Start [st] from a recorded basis: nonbasics on their bounds under the
   model's current bounds, the basis factorized (a singular one is
   repaired), and the state flagged warm so the next solve restarts. *)
let seed_basis st b =
  if Array.length b.b_bas <> st.m || Array.length b.b_vstat <> st.ntot then
    invalid_arg "Simplex.make: basis dimension mismatch";
  Array.blit b.b_bas 0 st.bas 0 st.m;
  Array.blit b.b_vstat 0 st.vstat 0 st.ntot;
  for j = 0 to st.ntot - 1 do
    if st.vstat.(j) <> basic then ignore (place_nonbasic st j)
  done;
  ignore (refactorize st);
  st.last_status <- Some Optimal

let extend_sp st model =
  let st2 = make_sp model in
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
      (* With the new rows' slacks basic the basis is block
         triangular, [[B, 0], [C, I]]; a fresh sparse factorization is
         cheap (the appended unit columns pivot first) and replaces the
         dense block-inverse construction of the pre-sparse solver. *)
      ignore (refactorize st2);
      (* same costs, appended basic slacks: the old duals remain
         feasible, so flag the state warm for the dual simplex *)
      st2.last_status <- Some Optimal;
      st2)
  | _ -> st2

(* ------------------------------------------------------------------ *)
(* Public interface: sparse by default, the frozen dense reference     *)
(* when FLEXILE_DENSE_SIMPLEX=1 (differential-testing escape hatch).   *)
(* ------------------------------------------------------------------ *)

type t = Sp of sp | Dn of Simplex_dense.t * Lp_model.t

let dense_selected () =
  match Sys.getenv_opt "FLEXILE_DENSE_SIMPLEX" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let of_dense_status = function
  | Simplex_dense.Optimal -> Optimal
  | Simplex_dense.Infeasible -> Infeasible
  | Simplex_dense.Unbounded -> Unbounded
  | Simplex_dense.Iteration_limit -> Iteration_limit

let of_dense_solution (s : Simplex_dense.solution) =
  {
    status = of_dense_status s.Simplex_dense.status;
    obj = s.Simplex_dense.obj;
    x = s.Simplex_dense.x;
    row_duals = s.Simplex_dense.row_duals;
    reduced_costs = s.Simplex_dense.reduced_costs;
    bound_term = s.Simplex_dense.bound_term;
    iterations = s.Simplex_dense.iterations;
  }

let make ?basis model =
  if dense_selected () then Dn (Simplex_dense.make model, model)
  else begin
    let st = make_sp model in
    Option.iter (seed_basis st) basis;
    Sp st
  end

let basis = function Sp st -> basis_sp st | Dn _ -> None

let solve_warm ?iter_limit t =
  Trace.in_span sp_solve @@ fun () ->
  match t with
  | Sp st ->
      sync_model st;
      restart_sp ~iter_limit:(iter_limit_of st iter_limit) st
  | Dn (_, model) ->
      (* the dense reference captures the model when made and cannot
         re-read it, so it solves the current model cold *)
      of_dense_solution (Simplex_dense.solve ?iter_limit model)

let resolve_rhs ?iter_limit t rhs =
  Trace.in_span sp_resolve @@ fun () ->
  match t with
  | Sp st -> resolve_rhs_sp ?iter_limit st rhs
  | Dn (d, _) -> of_dense_solution (Simplex_dense.resolve_rhs ?iter_limit d rhs)

let extend t model =
  match t with
  | Sp st -> Sp (extend_sp st model)
  | Dn (d, _) -> Dn (Simplex_dense.extend d model, model)

let health = function Sp st -> Some st.health | Dn _ -> None

(* ------------------------------------------------------------------ *)
(* Elevated-instrumentation entry points for [Doctor].                 *)
(* ------------------------------------------------------------------ *)

let solve_doctor ?iter_limit ?eta_limit ?thresholds model =
  let st = make_sp ?eta_limit ?thresholds model in
  Health.set_capture st.health true;
  let sol = cold_solve ?iter_limit st in
  (sol, st.health)

let diagnose_basis ?eta_limit ?thresholds ?(phase = 0) ?(iteration = 0) model
    ~bas ~vstat =
  let st = make_sp ?eta_limit ?thresholds model in
  if Array.length bas <> st.m || Array.length vstat <> st.ntot then
    invalid_arg "Simplex.diagnose_basis: dimension mismatch";
  Health.set_capture st.health true;
  Array.blit bas 0 st.bas 0 st.m;
  Array.blit vstat 0 st.vstat 0 st.ntot;
  for j = 0 to st.ntot - 1 do
    let s = st.vstat.(j) in
    if s = at_lower then
      st.xn.(j) <- (if st.lo.(j) > neg_infinity then st.lo.(j) else 0.)
    else if s = at_upper then
      st.xn.(j) <- (if st.up.(j) < infinity then st.up.(j) else 0.)
    else if s = free then st.xn.(j) <- 0.
  done;
  st.hphase <- phase;
  st.hiter <- iteration;
  ignore (refactorize st);
  st.health

let solve ?iter_limit model =
  Trace.in_span sp_solve @@ fun () ->
  if dense_selected () then
    of_dense_solution (Simplex_dense.solve ?iter_limit model)
  else begin
    let st = make_sp model in
    let sol = cold_solve ?iter_limit st in
    (if sol.status = Optimal then
       let viol = Lp_model.max_violation model sol.x in
       if viol > 1e-5 then
         Log.warn (fun m ->
             m "solution of %s violates constraints by %g"
               (Lp_model.name model) viol));
    sol
  end
