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
   degeneracy; a section is one scan of [dsc], the devex scores the
   primal loop maintains wherever a column's reduced cost, weight or
   status moves.  The dual simplex picks its leaving row from
   [infeas], the rows that may violate a bound, listed afresh by
   every [recompute_xb] and extended by each dual pivot.  Both choose
   the pivot the full scans would.  [solve_cold] re-solves a state
   from slack, which lets branch and bound keep one state per search.
   [Certificate] checks optimal solutions from the outside (primal
   feasibility, dual signs, duality gap); the tests and [Doctor] run
   it. *)

let feas_tol = 1e-7
let opt_tol = 1e-7
let pivot_tol = 1e-9
let degen_threshold = 120
let src = Logs.Src.create "flexile.lp" ~doc:"LP solver"

module Log = (val Logs.src_log src : Logs.LOG)
module Trace = Flexile_util.Trace
module Basis = Sparse.Basis
module Svec = Sparse.Svec

(* Exact-zero test, [Float_cmp.nonzero]'s semantics (NaN is nonzero,
   -0. is zero), kept unit-local: under dune's -opaque dev profile a
   call into another unit boxes its float argument on every column. *)
let[@inline] nonzero x = not (Float.equal x 0.)

(* Probes are per-solve, per-pivot-loop or per-refactorization, never
   per-pivot: with tracing disabled each costs one branch, with it
   enabled one domain-local array write. *)
let c_cold_solves = Trace.counter "simplex.cold_solves"
let sp_solve = Trace.span "simplex.solve"

(* added by every pivot loop as it ends, so the pivots of a restart
   that falls back to a cold solve are counted too *)
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

type t = {
  n : int;
  m : int;
  ntot : int;
  model : Lp_model.t;
      (* the build-time model: its names and row senses, for health
         dumps and warnings; bounds, RHS, costs and coefficients are
         the state's own, read at [create] and set by the setters *)
  col_start : int array; (* CSC of the structural columns *)
  row_idx : int array;
  mutable col_val : float array;
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
  (* pivot workspaces, allocated by the first pivot loop of the state
     ([pivot_work]) and kept, so that the pivot loops allocate nothing;
     a state that never pivots, like a template that is only copied,
     holds none.  Every loop re-initializes what it reads of them
     ([gamma] and [dsc] at the start of [primal_loop], [asv] at each
     scatter, the choice slots before each read), and [w] and [rho] are
     zero outside their ascending patterns, which every per-pivot loop
     walks instead of all m rows: a [copy] starts without them. *)
  mutable w : float array; (* FTRAN column, length m *)
  mutable w_pat : int array;
  mutable w_nnz : int;
  mutable rho : float array; (* BTRAN row of B^-1, length m *)
  mutable rho_pat : int array;
  mutable rho_nnz : int;
  mutable asv : Svec.t; (* alpha = A^T rho scatter, dimension ntot *)
  mutable choice_f : float array;
      (* pivot choice of the pricing and ratio-test kernels: the floats
         sit in a float array, at the ch_ slots, since a float returned
         from a call that is not inlined, or stored in a mutable field,
         is boxed *)
  mutable gamma : float array; (* devex reference weights over ntot *)
  mutable dsc : float array;
      (* pricing score over ntot, a pure function of the column's
         [vstat], bounds, [d] and [gamma] ([refresh_score]): rebuilt with
         [d], refreshed wherever the primal loop changes one of them *)
  y : float array; (* row duals, length m *)
  bt : float array;
      (* b - N x_N for recompute_xb and the health sampler; [y]'s array:
         each is written right before it is read *)
  dpat : int array;
      (* pattern scratch of the dense solves (xb, duals); [fcols]'s
         array, which only [refactorize] reads, before its solves *)
  (* CSR mirror of the structural columns, for pivot-row products *)
  row_start : int array; (* length m+1 *)
  row_col : int array;
  mutable row_val : float array;
  mutable own_vals : bool;
      (* [col_val] and [row_val] are this state's own; otherwise they
         are the model's matrix views, shared read-only with every
         state made from it, and [set_coef] copies both first *)
  mutable refactor_due : bool;
      (* [set_coef] changed a basic column of an optimal basis: the
         next restart refactors first *)
  fcols : int array; (* basis columns in [Basis.factor]'s encoding *)
  mutable enter : int; (* entering column, -1 for none *)
  mutable leave : int; (* leaving basis position, -1 for none *)
  mutable leave_up : bool; (* the leaving variable goes to its upper bound *)
  d : float array; (* reduced costs over ntot *)
  mutable d_valid : bool;
      (* [d] holds phase-2 reduced costs of the current basis, kept
         exact by the optimality confirmation and maintained by the
         dual pivots — lets a warm restart after bound and RHS changes
         skip the full rebuild *)
  infeas : int array;
      (* rows whose basic value may violate a bound, in no order: every
         violated row is listed, a listed row may have become feasible.
         Rebuilt by [recompute_xb], extended by the dual pivots *)
  mutable n_infeas : int;
  listed : bool array; (* row is in [infeas] *)
  sec_size : int; (* partial-pricing section length *)
  nsec : int;
  mutable psec : int; (* cyclic pricing cursor *)
  (* numerical health observatory (DESIGN.md section 15) *)
  health : Health.state;
  mutable hphase : int; (* phase_setup/_primal1/_primal2/_dual *)
  mutable hiter : int; (* iteration count at the last loop step *)
  eta_cap : int option;
      (* [make]'s eta limit, [None] for the default; copies keep it and
         a health dump replays under it *)
}

let slack_bounds sense =
  match sense with
  | Lp_model.Le -> (0., infinity)
  | Lp_model.Ge -> (neg_infinity, 0.)
  | Lp_model.Eq -> (0., 0.)

let create ?eta_limit ?stall_limit model =
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
  let csc = Lp_model.csc model and csr = Lp_model.csr model in
  let fcols = Array.make m 0 and y = Array.make m 0. in
  {
    n;
    m;
    ntot;
    model;
    col_start = csc.Lp_model.col_start;
    row_idx = csc.Lp_model.row_idx;
    col_val = csc.Lp_model.values;
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
    w = [||];
    w_pat = [||];
    w_nnz = 0;
    rho = [||];
    rho_pat = [||];
    rho_nnz = 0;
    asv = Svec.create 0;
    choice_f = [||];
    gamma = [||];
    dsc = [||];
    y;
    bt = y;
    dpat = fcols;
    row_start = csr.Lp_model.row_start;
    row_col = csr.Lp_model.col_idx;
    row_val = csr.Lp_model.row_values;
    own_vals = false;
    refactor_due = false;
    fcols;
    enter = -1;
    leave = -1;
    leave_up = false;
    d = Array.make ntot 0.;
    d_valid = false;
    infeas = Array.make m 0;
    n_infeas = 0;
    listed = Array.make m false;
    sec_size;
    nsec;
    psec = 0;
    health = Health.make ?stall_limit m;
    hphase = phase_setup;
    hiter = 0;
    eta_cap = eta_limit;
  }

(* The LP the state holds, as a model: the build-time model's names
   and row senses, with the state's bounds, costs, RHS and
   coefficients. *)
let to_model st =
  let src = st.model in
  let md = Lp_model.create ~name:(Lp_model.name src) () in
  for j = 0 to st.n - 1 do
    ignore
      (Lp_model.add_var md ~name:(Lp_model.var_name src j) ~lb:st.lo.(j)
         ~ub:st.up.(j) ~obj:st.cost.(j) ())
  done;
  for i = 0 to st.m - 1 do
    let k0 = st.row_start.(i) in
    let coeffs =
      List.init (st.row_start.(i + 1) - k0) (fun k ->
          (st.row_col.(k0 + k), st.row_val.(k0 + k)))
    in
    ignore
      (Lp_model.add_row md ~name:(Lp_model.row_name src i)
         (Lp_model.row_sense src i) st.b.(i) coeffs)
  done;
  md

(* Threshold trip -> reproducible snapshot (the state's LP + basis +
   variable statuses + trip metadata), so the failing LP can be
   replayed by [flexile doctor --from-dump].  Gated on
   FLEXILE_HEALTH_DUMP inside [Health.write_dump]; the copies happen
   only on a trip. *)
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
             d_eta_limit = st.eta_cap;
             d_model = to_model st;
             d_basis = Array.copy st.bas;
             d_vstat = Array.copy st.vstat;
           })

let create ?eta_limit ?stall_limit model =
  let st = create ?eta_limit ?stall_limit model in
  Health.set_on_trip st.health (dump_on_trip st);
  st

(* The pivot workspaces, allocated at the first pivot loop. *)
let pivot_work st =
  if Array.length st.choice_f = 0 then begin
    st.w <- Array.make st.m 0.;
    st.w_pat <- Array.make st.m 0;
    st.w_nnz <- 0;
    st.rho <- Array.make st.m 0.;
    st.rho_pat <- Array.make st.m 0;
    st.rho_nnz <- 0;
    st.asv <- Svec.create st.ntot;
    st.choice_f <- Array.make 3 0.;
    st.gamma <- Array.make st.ntot 1.;
    st.dsc <- Array.make st.ntot 0.
  end

(* Slots of [choice_f]. *)
let ch_dir = 0 (* entering direction, 1. or -1. *)
let ch_step = 1 (* primal step length, or dual ratio *)
let ch_alpha = 2 (* dual pivot-row entry of the entering column *)

(* Row of the unit column of slack or artificial [j]. *)
let[@inline] unit_row st j = if j < st.n + st.m then j - st.n else j - st.n - st.m

(* Iterate over the (row, coefficient) entries of column [j]; for the
   health sampler only, the solver loops read the CSC arrays. *)
let col_iter st j f =
  if j < st.n then begin
    let cv = st.col_val in
    for k = st.col_start.(j) to st.col_start.(j + 1) - 1 do
      f st.row_idx.(k) cv.(k)
    done
  end
  else f (unit_row st j) 1.0

(* Dot of a dense m-vector with column j. *)
let[@inline][@lint.noalloc] col_dot st y j =
  if j < st.n then begin
    let ri = st.row_idx and cv = st.col_val in
    let s = ref 0. in
    for k = st.col_start.(j) to st.col_start.(j + 1) - 1 do
      s := !s +. (y.(ri.(k)) *. cv.(k))
    done;
    !s
  end
  else 0. +. (y.(unit_row st j) *. 1.0)

(* w := B^-1 A_j (FTRAN through the factors + eta file), clearing the
   previous column along its pattern. *)
let[@lint.noalloc] ftran st j =
  let w = st.w and pat = st.w_pat in
  for p = 0 to st.w_nnz - 1 do
    w.(pat.(p)) <- 0.
  done;
  let nnz =
    if j < st.n then begin
      let ri = st.row_idx and cv = st.col_val in
      let k0 = st.col_start.(j) in
      for k = k0 to st.col_start.(j + 1) - 1 do
        let r = ri.(k) in
        w.(r) <- w.(r) +. cv.(k);
        pat.(k - k0) <- r
      done;
      st.col_start.(j + 1) - k0
    end
    else begin
      let r = unit_row st j in
      w.(r) <- w.(r) +. 1.0;
      pat.(0) <- r;
      1
    end
  in
  st.w_nnz <- Basis.ftran st.basis w ~pat ~nnz

(* y := costs_B B^-1 (BTRAN). *)
let[@lint.noalloc] btran st costs y =
  for k = 0 to st.m - 1 do
    y.(k) <- costs.(st.bas.(k))
  done;
  ignore
    (Basis.btran st.basis y ~pat:st.dpat ~nnz:(Sparse.nonzeros y st.m st.dpat))

(* asv := A^T rho over every column (structural via the CSR mirror,
   slack and artificial unit columns directly), visiting only the rows
   of [rho]'s ascending pattern.  This is the pivot-row product the pricing
   updates and the dual ratio test need; iterating its pattern instead
   of all [ntot] columns is what makes a pivot cost proportional to
   the pivot row's fill. *)
let[@lint.noalloc] scatter_alpha st =
  Svec.clear st.asv;
  Svec.scatter_rows st.asv st.rho ~pat:st.rho_pat ~nnz:st.rho_nnz
    ~row_start:st.row_start ~row_col:st.row_col ~row_val:st.row_val
    ~unit1:st.n ~unit2:(st.n + st.m)

(* rho := row r of B^-1 (BTRAN of a unit vector). *)
let[@lint.noalloc] btran_row st r =
  st.rho_nnz <-
    Basis.btran_unit st.basis r st.rho ~pat:st.rho_pat ~nnz:st.rho_nnz

(* bt := b - sum_{nonbasic j} A_j xn_j, in row space. *)
let[@lint.noalloc] nonbasic_residual st =
  let bt = st.bt in
  Array.blit st.b 0 bt 0 st.m;
  for j = 0 to st.ntot - 1 do
    let xj = st.xn.(j) in
    if st.vstat.(j) <> basic && nonzero xj then
      if j < st.n then begin
        let ri = st.row_idx and cv = st.col_val in
        for k = st.col_start.(j) to st.col_start.(j + 1) - 1 do
          let i = ri.(k) in
          bt.(i) <- bt.(i) -. (cv.(k) *. xj)
        done
      end
      else
        let i = unit_row st j in
        bt.(i) <- bt.(i) -. (1.0 *. xj)
  done

(* List row [i] in [infeas] if it is not listed yet and its basic
   variable violates a bound by more than [feas_tol] (a row the dual
   simplex can choose to leave); called wherever its basic value or
   basic variable changes. *)
let[@inline][@lint.noalloc] mark_row st i =
  let q = st.bas.(i) in
  if
    (not st.listed.(i))
    && (st.lo.(q) -. st.xb.(i) > feas_tol || st.xb.(i) -. st.up.(q) > feas_tol)
  then begin
    st.listed.(i) <- true;
    st.infeas.(st.n_infeas) <- i;
    st.n_infeas <- st.n_infeas + 1
  end

(* Recompute basic values from scratch:
   xb = B^-1 (b - sum_{nonbasic j} A_j xn_j), and list the violated
   rows afresh. *)
let recompute_xb st =
  nonbasic_residual st;
  ignore
    (Basis.ftran st.basis st.bt ~pat:st.dpat
       ~nnz:(Sparse.nonzeros st.bt st.m st.dpat));
  Array.blit st.bt 0 st.xb 0 st.m;
  for p = 0 to st.n_infeas - 1 do
    st.listed.(st.infeas.(p)) <- false
  done;
  st.n_infeas <- 0;
  for i = 0 to st.m - 1 do
    mark_row st i
  done

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
  if Health.sample_due st.health ~basic:st.bas then begin
  nonbasic_residual st;
  Health.sample st.health ~basis:st.basis ~pat:st.dpat ~kind
    ~phase:st.hphase ~iteration:st.hiter
    ~col:(fun pos f -> col_iter st st.bas.(pos) f)
    ~cb:(fun pos -> st.cost.(st.bas.(pos)))
    ~btilde:st.bt ~xb:st.xb ~eta ~patched
  end

(* Rebuild the LU factorization of the recorded basis.  A singular or
   numerically dependent basis is not an error: [Basis.factor] patches
   the dependent positions with slack unit columns and we repair the
   recorded basis to match (the evicted variable goes to a bound), then
   let the simplex iterate onward from the repaired point. *)
let refactor_basis st =
  Trace.incr c_refactorizations;
  st.refactor_due <- false;
  Trace.observe h_eta_at_refactor (float_of_int (Basis.eta_count st.basis));
  for pos = 0 to st.m - 1 do
    let q = st.bas.(pos) in
    st.fcols.(pos) <- (if q < st.n then q else Basis.unit_col (unit_row st q))
  done;
  let patched =
    Trace.with_span t_factor @@ fun () ->
    Basis.factor st.basis ~col_start:st.col_start ~row_idx:st.row_idx
      ~values:st.col_val ~cols:st.fcols
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
  patched

(* [refactor_basis] plus a health-sampling opportunity; returns true
   when the basis was repaired. *)
let refactorize st =
  let active = health_active st in
  let eta = if active then eta_epoch_of st else Health.empty_epoch in
  let patched = refactor_basis st in
  if active then health_sample st ~kind:Health.Refactor ~eta ~patched;
  patched <> []

(* Append the pivot (entering column image [w], leaving position [r])
   to the eta file; on a numerically hopeless eta pivot rebuild the
   factorization of the already-updated recorded basis instead.
   Returns true when the basis was repaired (duals must be rebuilt). *)
let update_basis st r =
  if Basis.update st.basis ~r ~w:st.w ~pat:st.w_pat ~nnz:st.w_nnz then begin
    Trace.incr c_eta_updates;
    if Basis.needs_refactor st.basis then refactorize st else false
  end
  else refactorize st

(* ------------------------------------------------------------------ *)
(* Primal simplex iterations with cost vector [costs].                 *)
(* ------------------------------------------------------------------ *)

type primal_result = P_optimal | P_unbounded | P_iter_limit

(* Whether nonbasic [j] can enter: not fixed, and its reduced cost
   improves the objective by more than [opt_tol] in a direction its
   bound allows (up from a lower bound, down from an upper, either way
   when free). *)
let[@inline] can_enter st j =
  let stt = st.vstat.(j) in
  stt <> basic
  && st.lo.(j) < st.up.(j)
  &&
  let dj = st.d.(j) in
  (stt <> at_upper && -.dj > opt_tol) || (stt <> at_lower && dj > opt_tol)

(* dsc.(j) := the devex score [d_j^2 / gamma_j] when [j] can enter,
   0. otherwise.  Every eligible score is positive or zero, so the
   pricing scan, which takes a column only when its score beats a best
   that starts at 0., never takes an ineligible one. *)
let[@inline][@lint.noalloc] refresh_score st j =
  st.dsc.(j) <-
    (if can_enter st j then
       let dj = st.d.(j) in
       dj *. dj /. st.gamma.(j)
     else 0.)

(* Entering direction of an eligible column: up unless it sits at its
   upper bound, or is free with a positive reduced cost. *)
let[@inline] set_direction st j =
  let stt = st.vstat.(j) in
  st.choice_f.(ch_dir) <-
    (if stt = at_upper || (stt = free && st.d.(j) > 0.) then -1. else 1.)

(* Devex pricing over the columns [lo, hi]: the first column whose
   score is strictly the largest, into [enter] (-1 when none can
   enter). *)
let[@lint.noalloc] price st lo hi =
  let dsc = st.dsc in
  let enter = ref (-1) in
  let best = ref 0. in
  for j = lo to hi do
    let sj = dsc.(j) in
    if sj > !best then begin
      enter := j;
      best := sj
    end
  done;
  st.enter <- !enter

(* Bland's entering rule: the smallest index that can enter. *)
let[@lint.noalloc] price_bland st =
  let j = ref 0 in
  st.enter <- -1;
  while st.enter = -1 && !j < st.ntot do
    if can_enter st !j then st.enter <- !j;
    incr j
  done

(* Primal ratio test along [w] for the entering direction in ch_dir,
   over [w]'s ascending pattern (a zero entry never blocks).  Basic
   value i changes at rate (-. s *. w.(i)) per unit step.  Ties
   are normally broken toward the largest pivot magnitude (stability);
   under the Bland fallback they must be broken by smallest leaving
   variable index instead — Bland's rule only guarantees termination
   when BOTH the entering and the leaving choice use the smallest-index
   rule.  Writes [leave] (-1 when unbounded), [leave_up] and ch_step. *)
let[@lint.noalloc] primal_ratio st ~bland =
  let w = st.w and s = st.choice_f.(ch_dir) in
  let tmax = ref infinity in
  let leave = ref (-1) in
  let leave_to_up = ref false in
  for p = 0 to st.w_nnz - 1 do
    let i = st.w_pat.(p) in
    let rate = -.s *. w.(i) in
    let q = st.bas.(i) in
    (* side 1: row i blocks at its lower bound, 2: at its upper *)
    let side =
      if rate < -.pivot_tol then if st.lo.(q) > neg_infinity then 1 else 0
      else if rate > pivot_tol && st.up.(q) < infinity then 2
      else 0
    in
    if side <> 0 then begin
      let ti =
        if side = 1 then (st.xb.(i) -. st.lo.(q)) /. -.rate
        else (st.up.(q) -. st.xb.(i)) /. rate
      in
      let ti = if ti < 0. then 0. else ti in
      if
        ti < !tmax -. 1e-12
        || ti < !tmax +. 1e-12
           && (!leave = -1
              ||
              if bland then q < st.bas.(!leave)
              else Float.abs w.(i) > Float.abs w.(!leave))
      then begin
        tmax := ti;
        leave := i;
        leave_to_up := side = 2
      end
    end
  done;
  st.leave <- !leave;
  st.leave_up <- !leave_to_up;
  st.choice_f.(ch_step) <- !tmax

let primal_loop st costs ~iter_limit iter_count =
  pivot_work st;
  let y = st.y and w = st.w and wpat = st.w_pat in
  (* reduced costs, maintained incrementally (O(nnz) per pivot instead
     of a BTRAN per iteration) and recomputed periodically; devex
     weights reset whenever the reduced costs are rebuilt exactly *)
  let d = st.d and gamma = st.gamma in
  let recompute_d () =
    btran st costs y;
    for j = 0 to st.ntot - 1 do
      if st.vstat.(j) <> basic then d.(j) <- costs.(j) -. col_dot st y j
      else d.(j) <- 0.;
      gamma.(j) <- 1.;
      refresh_score st j
    done
  in
  st.d_valid <- false;
  recompute_d ();
  let degen = ref 0 in
  (* stall detection: longest run of zero-step ratio tests and the
     Bland dwell, one integer compare per iteration (DESIGN.md s15) *)
  let stall_lim = Health.stall_limit st.health in
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
      st.enter <- -1;
      if bland then price_bland st
      else begin
        (* partial pricing: cyclic scan of static sections, stopping at
           the first section that yields a candidate *)
        let scanned = ref 0 in
        while st.enter = -1 && !scanned < st.nsec do
          let s0 = (st.psec + !scanned) mod st.nsec in
          let jhi = min st.ntot ((s0 + 1) * st.sec_size) - 1 in
          price st (s0 * st.sec_size) jhi;
          (* advance the cursor past the section that produced the
             candidate: sticking to a section while it keeps yielding
             (degenerate) candidates starves the rest of the matrix and
             stalls phase 1 on massively degenerate vertices *)
          if st.enter <> -1 then st.psec <- (s0 + 1) mod st.nsec;
          incr scanned
        done
      end;
      let enter = st.enter in
      if enter = -1 then begin
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
        set_direction st enter;
        let j = enter and s = st.choice_f.(ch_dir) in
        ftran st j;
        primal_ratio st ~bland;
        let leave = st.leave and tmax = st.choice_f.(ch_step) in
        (* Bound-flip possibility for the entering variable itself. *)
        let range = st.up.(j) -. st.lo.(j) in
        if range < tmax then begin
          (* flip: move to the opposite bound, no basis change *)
          let t = range in
          for p = 0 to st.w_nnz - 1 do
            let i = wpat.(p) in
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
          refresh_score st j;
          degen := 0
        end
        else if leave = -1 then result := Some P_unbounded
        else begin
          let r = leave and t = tmax in
          if t <= 1e-10 then begin
            incr degen;
            if !degen > !max_run then max_run := !degen;
            if !degen = stall_lim then
              Health.note_stall st.health ~phase:st.hphase
                ~iteration:!iter_count ~run:!degen
          end
          else degen := 0;
          let entering_value = st.xn.(j) +. (s *. t) in
          for p = 0 to st.w_nnz - 1 do
            let i = wpat.(p) in
            if i <> r then st.xb.(i) <- st.xb.(i) -. (s *. w.(i) *. t)
          done;
          let q = st.bas.(r) in
          st.vstat.(q) <- (if st.leave_up then at_upper else at_lower);
          st.xn.(q) <- (if st.leave_up then st.up.(q) else st.lo.(q));
          (* incremental dual/devex update with the pre-pivot row r of
             B^-1: d'_k = d_k - (d_j / w_r) (rho . A_k) and
             gamma'_k = max(gamma_k, (alpha_k / w_r)^2 gamma_j) *)
          btran_row st r;
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
            scatter_alpha st;
            let pat = Svec.pattern st.asv and alpha = Svec.values st.asv in
            for p = 0 to Svec.nnz st.asv - 1 do
              let k = pat.(p) in
              let alpha_k = alpha.(k) in
              if st.vstat.(k) <> basic && k <> q && nonzero alpha_k then begin
                if nonzero theta then d.(k) <- d.(k) -. (theta *. alpha_k);
                let cand = alpha_k *. alpha_k *. gscale in
                if cand > gamma.(k) then gamma.(k) <- cand;
                refresh_score st k
              end
            done;
            d.(q) <- -.theta;
            gamma.(q) <- Float.max gscale 1.;
            d.(j) <- 0.;
            refresh_score st q;
            refresh_score st j
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
  Trace.add c_iterations (!iter_count - iters0);
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
     patches, and no health-sampling opportunity: there is nothing to
     measure); artificials fixed nonbasic *)
  for i = 0 to m - 1 do
    st.bas.(i) <- n + i;
    st.vstat.(n + i) <- basic;
    st.lo.(n + m + i) <- 0.;
    st.up.(n + m + i) <- 0.;
    st.vstat.(n + m + i) <- at_lower;
    st.xn.(n + m + i) <- 0.
  done;
  st.psec <- 0;
  ignore (refactor_basis st)

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
    if nonzero c then s := !s +. (c *. st.xb.(i))
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
    if st.vstat.(j) <> basic && nonzero st.xn.(j) then
      bound_term := !bound_term +. (d *. st.xn.(j))
  done;
  let obj = ref 0. in
  for j = 0 to n - 1 do
    obj := !obj +. (st.cost.(j) *. x.(j))
  done;
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
   eta limit mid-solve, so without this the observatory would never see
   their bases (the slack basis of [setup_cold] is not sampled).  The
   *answer* basis is the one whose residuals and conditioning decide
   whether the solution can be trusted. *)
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
let[@inline] dual_sign_ok st j d =
  if st.lo.(j) >= st.up.(j) then true
  else
    let s = st.vstat.(j) in
    if s = at_lower then d >= -1e-6
    else if s = at_upper then d <= 1e-6
    else if s = free then Float.abs d <= 1e-6
    else true

(* Dual ratio test over the pivot row in [asv] (only columns in its
   pattern can pass the pivot tolerance) for a leaving variable going
   [~above] its upper bound or below its lower.  Writes [enter] (-1
   when the row proves primal infeasibility), the ratio to ch_step and
   the pivot-row entry to ch_alpha. *)
let[@lint.noalloc] dual_ratio st ~bland ~above =
  let d = st.d in
  let pat = Svec.pattern st.asv and alpha_of = Svec.values st.asv in
  let enter = ref (-1) in
  let best_ratio = ref infinity in
  let best_alpha = ref 0. in
  for p = 0 to Svec.nnz st.asv - 1 do
    let j = pat.(p) in
    let alpha = alpha_of.(j) in
    let stt = st.vstat.(j) in
    if stt <> basic && st.lo.(j) < st.up.(j) && Float.abs alpha > pivot_tol
    then begin
      let candidate =
        if above then
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
        (* Bland anti-cycling still honors the dual ratio test: among
           (near-)minimal ratios take the smallest index, otherwise dual
           feasibility would be destroyed. *)
        if
          ratio < !best_ratio -. 1e-12
          || ratio < !best_ratio +. 1e-12
             &&
             if bland then !enter = -1 || j < !enter
             else Float.abs alpha > Float.abs !best_alpha
        then begin
          enter := j;
          best_ratio := Float.min ratio !best_ratio;
          best_alpha := alpha
        end
      end
    end
  done;
  st.enter <- !enter;
  st.choice_f.(ch_step) <- !best_ratio;
  st.choice_f.(ch_alpha) <- !best_alpha

(* Leaving row of the dual simplex: the basic variable that violates a
   bound by the most, into [leave] (-1 when none by more than
   [feas_tol]) and [leave_up].  It is the choice of an ascending scan
   of all rows, below before above within a row, that takes only a
   strictly larger violation: over the listed rows, in any order, an
   equal violation wins only from a lower row.  Rows found feasible
   leave the list. *)
let[@lint.noalloc] dual_leaving st =
  let r = ref (-1) in
  let viol = ref feas_tol in
  let above = ref false in
  let p = ref 0 in
  while !p < st.n_infeas do
    let i = st.infeas.(!p) in
    let q = st.bas.(i) in
    let below_v = st.lo.(q) -. st.xb.(i) in
    let above_v = st.xb.(i) -. st.up.(q) in
    if below_v > feas_tol || above_v > feas_tol then begin
      if below_v > !viol || (Float.equal below_v !viol && i < !r) then begin
        viol := below_v;
        r := i;
        above := false
      end;
      if above_v > !viol || (Float.equal above_v !viol && i < !r) then begin
        viol := above_v;
        r := i;
        above := true
      end;
      incr p
    end
    else begin
      st.listed.(i) <- false;
      st.n_infeas <- st.n_infeas - 1;
      st.infeas.(!p) <- st.infeas.(st.n_infeas)
    end
  done;
  st.leave <- !r;
  st.leave_up <- !above

let dual_loop st ~iter_limit iters =
  pivot_work st;
  let w = st.w and wpat = st.w_pat in
  let d = st.d in
  let recompute_duals () = exact_duals st in
  (* a warm restart from an optimal basis inherits its exact reduced
     costs; rebuild only when the basis has moved under us *)
  if not st.d_valid then recompute_duals ();
  let zero_steps = ref 0 in
  let stall_lim = Health.stall_limit st.health in
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
      dual_leaving st;
      if st.leave = -1 then result := Some D_optimal
      else begin
        let r = st.leave and above = st.leave_up in
        btran_row st r;
        (* pivot-row entries alpha_k = rho . A_k; only columns in the
           scatter pattern can pass the pivot tolerance, so the ratio
           test and the dual update below visit just the pattern *)
        scatter_alpha st;
        let bland = !zero_steps > degen_threshold in
        if bland then incr bland_iters;
        (* --- entering: dual ratio test --- *)
        dual_ratio st ~bland ~above;
        let j = st.enter in
        if j = -1 then result := Some D_infeasible
        else begin
          if st.choice_f.(ch_step) <= 1e-10 then begin
            incr zero_steps;
            if !zero_steps > !max_run then max_run := !zero_steps;
            if !zero_steps = stall_lim then
              Health.note_stall st.health ~phase:st.hphase ~iteration:!iters
                ~run:!zero_steps
          end
          else zero_steps := 0;
          let alpha_j = st.choice_f.(ch_alpha) in
          let q = st.bas.(r) in
          let target = if above then st.up.(q) else st.lo.(q) in
          let delta = (st.xb.(r) -. target) /. alpha_j in
          ftran st j;
          for p = 0 to st.w_nnz - 1 do
            let i = wpat.(p) in
            if i <> r then begin
              st.xb.(i) <- st.xb.(i) -. (w.(i) *. delta);
              mark_row st i
            end
          done;
          st.vstat.(q) <- (if above then at_upper else at_lower);
          st.xn.(q) <- target;
          st.bas.(r) <- j;
          st.vstat.(j) <- basic;
          (* row r stays listed: the leaving choice took it from [infeas] *)
          st.xb.(r) <- st.xn.(j) +. delta;
          let theta = d.(j) /. alpha_j in
          let repaired = update_basis st r in
          if repaired then begin
            recompute_xb st;
            recompute_duals ()
          end
          else begin
            (* update duals: d'_k = d_k - (d_j/alpha_j) * alpha_k *)
            if nonzero theta then begin
              let pat = Svec.pattern st.asv and alpha = Svec.values st.asv in
              for p = 0 to Svec.nnz st.asv - 1 do
                let k = pat.(p) in
                if st.vstat.(k) <> basic then
                  d.(k) <- d.(k) -. (theta *. alpha.(k))
              done
            end;
            d.(q) <- -.theta;
            d.(j) <- 0.
          end
        end
      end
    end
  done;
  Trace.add c_iterations (!iters - iters0);
  Health.note_loop_end st.health ~phase:st.hphase
    ~iterations:(!iters - iters0) ~max_run:!max_run ~bland:!bland_iters;
  match !result with Some r -> r | None -> assert false

(* A posteriori optimality check for the dual simplex: the final basis
   must be dual feasible under exactly-recomputed reduced costs.  If
   drift broke it, primal phase 2 finishes from that basis rather than
   return a primal-feasible but suboptimal point. *)
let nonbasic_signs_ok st ~exact =
  let ok = ref true in
  for j = 0 to st.ntot - 1 do
    if !ok && st.vstat.(j) <> basic then
      ok :=
        dual_sign_ok st j
          (if exact then st.cost.(j) -. col_dot st st.y j else st.d.(j))
  done;
  !ok

(* [exact]: judge on reduced costs recomputed from the duals, leaving
   the maintained [d] untouched. *)
let dual_feasible st =
  btran st st.cost st.y;
  nonbasic_signs_ok st ~exact:true

(* Exact reduced costs of a basis whose duals are not maintained (fresh
   from [extend] or [restart_from], or after a cost change), checked
   for dual feasibility. *)
let dual_start_ok st =
  exact_duals st;
  nonbasic_signs_ok st ~exact:false

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
   phase 2.  Primal phase 2 also cleans up after a dual simplex that
   ends primal feasible but, under exactly recomputed reduced costs, no
   longer dual feasible (drift): its basis is kept, not thrown away.  A
   cold solve of the same state remains for a failed primal phase 2, an
   iteration limit, a start that is neither primal nor dual feasible,
   and to confirm an infeasibility proof of the dual simplex. *)
let restart ~iter_limit st =
  let cold () = cold_solve ~iter_limit st in
  let fallback () =
    Trace.incr c_warm_fallbacks;
    cold ()
  in
  let primal_cleanup iters =
    match primal_phase2 ~iter_limit st iters with
    | Optimal -> warm_hit st ~status:Optimal ~iterations:!iters
    | _ -> fallback ()
  in
  match st.last_status with
  | Some Optimal ->
      Trace.incr c_warm_attempts;
      if st.refactor_due then ignore (refactorize st);
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
                  m "dual simplex drifted out of dual feasibility; primal cleanup");
              primal_cleanup iters
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
      else if primal_feasible ~tol:feas_tol st then primal_cleanup iters
      else fallback ()
  | _ -> cold ()

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

let check_var st j =
  if j < 0 || j >= st.n then invalid_arg "Simplex: variable out of range"

let check_row st i =
  if i < 0 || i >= st.m then invalid_arg "Simplex: row out of range"

let check_value what x =
  if Float.is_nan x then invalid_arg (Printf.sprintf "Simplex: NaN %s" what)

(* The setters write the state directly.  Reduced costs stay valid
   under bound and RHS changes unless a nonbasic variable changes side
   or stops being fixed (its reduced cost then has to be checked
   again), and never under cost or coefficient changes. *)
let set_bounds st j ~lb ~ub =
  check_var st j;
  check_value "lower bound" lb;
  check_value "upper bound" ub;
  if lb > ub then invalid_arg "Simplex.set_bounds: lb > ub";
  if not (Float.equal lb st.lo.(j) && Float.equal ub st.up.(j)) then begin
    let was_fixed = st.lo.(j) >= st.up.(j) in
    st.lo.(j) <- lb;
    st.up.(j) <- ub;
    if st.vstat.(j) <> basic && (place_nonbasic st j || was_fixed) then
      st.d_valid <- false
  end

let lb st j =
  check_var st j;
  st.lo.(j)

let ub st j =
  check_var st j;
  st.up.(j)

let set_obj st j c =
  check_var st j;
  check_value "objective" c;
  if not (Float.equal c st.cost.(j)) then begin
    st.cost.(j) <- c;
    st.d_valid <- false
  end

let set_rhs st i v =
  check_row st i;
  check_value "rhs" v;
  st.b.(i) <- v

(* Position of entry (i, j) in [idx.(start.(k)) .. idx.(start.(k+1)-1)]. *)
let find_entry start idx k target =
  let p = ref (-1) in
  for q = start.(k) to start.(k + 1) - 1 do
    if idx.(q) = target then p := q
  done;
  if !p < 0 then invalid_arg "Simplex.set_coef: no such entry";
  !p

(* The matrix views are shared with the model and with every state
   made from it until the first write, which copies both value
   arrays.  A changed basic column of an optimal basis has its
   factors rebuilt by the next restart. *)
let set_coef st i j v =
  check_row st i;
  check_var st j;
  check_value "coefficient" v;
  if not (nonzero v) then invalid_arg "Simplex.set_coef: zero";
  let kc = find_entry st.col_start st.row_idx j i in
  if not (Float.equal v st.col_val.(kc)) then begin
    if not st.own_vals then begin
      st.col_val <- Array.copy st.col_val;
      st.row_val <- Array.copy st.row_val;
      st.own_vals <- true
    end;
    st.col_val.(kc) <- v;
    st.row_val.(find_entry st.row_start st.row_col i j) <- v;
    st.d_valid <- false;
    if st.vstat.(j) = basic && st.last_status = Some Optimal then
      st.refactor_due <- true
  end

(* The value arrays a copy of [src] may write: its own when [src] owns
   them, the shared ones otherwise. *)
let copy_vals st src =
  if src.own_vals then begin
    st.col_val <- Array.copy src.col_val;
    st.row_val <- Array.copy src.row_val;
    st.own_vals <- true
  end
  else begin
    st.col_val <- src.col_val;
    st.row_val <- src.row_val
  end

(* A fresh state of [src]'s LP at [src]'s last optimal basis:
   nonbasics on their bounds, the basis factorized (a singular one is
   repaired), and the state flagged warm so that its first solve
   restarts. *)
let restart_from src =
  let st = create ?eta_limit:src.eta_cap src.model in
  if st.n <> src.n || st.m <> src.m then
    invalid_arg "Simplex.restart_from: the model changed shape";
  Array.blit src.lo 0 st.lo 0 st.n;
  Array.blit src.up 0 st.up 0 st.n;
  Array.blit src.cost 0 st.cost 0 st.n;
  Array.blit src.b 0 st.b 0 st.m;
  copy_vals st src;
  if src.last_status = Some Optimal then begin
    Array.blit src.bas 0 st.bas 0 st.m;
    Array.blit src.vstat 0 st.vstat 0 st.ntot;
    for j = 0 to st.ntot - 1 do
      if st.vstat.(j) <> basic then ignore (place_nonbasic st j)
    done;
    ignore (refactorize st);
    st.last_status <- Some Optimal
  end;
  st

(* The exact reduced costs of [st]'s optimal basis, computed once for
   its copies.  They are kept only when the basis is dual feasible
   under them, which is what the first restart of a copy would find
   and check: the setters drop them wherever a nonbasic variable
   changes side or stops being fixed, a cost moves or a coefficient
   changes. *)
let prime_duals st =
  if st.last_status = Some Optimal && not (dual_start_ok st) then st.d_valid <- false

(* A deep copy of [src]: every array is copied, the ones that share an
   array in [create] share one copy, the matrix values are shared
   while [src] shares them, the pivot workspaces are left for the
   copy's first pivot loop to allocate, and the health state is
   fresh. *)
let copy src =
  let y = Array.copy src.y and fcols = Array.copy src.fcols in
  let st =
    {
      src with
      lo = Array.copy src.lo;
      up = Array.copy src.up;
      cost = Array.copy src.cost;
      b = Array.copy src.b;
      vstat = Array.copy src.vstat;
      bas = Array.copy src.bas;
      basis = Basis.copy src.basis;
      xb = Array.copy src.xb;
      xn = Array.copy src.xn;
      w = [||];
      w_pat = [||];
      w_nnz = 0;
      rho = [||];
      rho_pat = [||];
      rho_nnz = 0;
      asv = Svec.create 0;
      choice_f = [||];
      gamma = [||];
      dsc = [||];
      y;
      bt = y;
      dpat = fcols;
      fcols;
      d = Array.copy src.d;
      infeas = Array.copy src.infeas;
      listed = Array.copy src.listed;
      health = Health.make ~stall_limit:(Health.stall_limit src.health) src.m;
    }
  in
  copy_vals st src;
  Health.set_on_trip st.health (dump_on_trip st);
  st

let extend st model =
  let st2 = create model in
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
         cheap (the appended unit columns pivot first). *)
      ignore (refactorize st2);
      (* same costs, appended basic slacks: the old duals remain
         feasible, so flag the state warm for the dual simplex *)
      st2.last_status <- Some Optimal;
      st2)
  | _ -> st2

let make ?eta_limit model = create ?eta_limit model

let solve_warm ?iter_limit st =
  Trace.in_span sp_solve @@ fun () ->
  restart ~iter_limit:(iter_limit_of st iter_limit) st

(* ------------------------------------------------------------------ *)
(* Elevated-instrumentation entry points for [Doctor].                 *)
(* ------------------------------------------------------------------ *)

let solve_doctor ?eta_limit ?stall_limit model =
  let st = create ?eta_limit ?stall_limit model in
  Health.set_capture st.health true;
  let sol = cold_solve st in
  (sol, st.health)

let diagnose_basis ?eta_limit ?stall_limit ?(phase = 0) ?(iteration = 0) model
    ~bas ~vstat =
  let st = create ?eta_limit ?stall_limit model in
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

(* [Lp_model.max_violation] over the state's bounds, RHS and
   coefficients, summed in the same order. *)
let max_violation st x =
  let worst = ref 0. in
  for j = 0 to st.n - 1 do
    worst := Float.max !worst (st.lo.(j) -. x.(j));
    worst := Float.max !worst (x.(j) -. st.up.(j))
  done;
  for i = 0 to st.m - 1 do
    let a = ref 0. in
    for k = st.row_start.(i) to st.row_start.(i + 1) - 1 do
      a := !a +. (st.row_val.(k) *. x.(st.row_col.(k)))
    done;
    let a = !a and r = st.b.(i) in
    match Lp_model.row_sense st.model i with
    | Lp_model.Le -> worst := Float.max !worst (a -. r)
    | Lp_model.Ge -> worst := Float.max !worst (r -. a)
    | Lp_model.Eq -> worst := Float.max !worst (Float.abs (a -. r))
  done;
  !worst

let checked_cold_solve st =
  let sol = cold_solve st in
  (if sol.status = Optimal then
     let viol = max_violation st sol.x in
     if viol > 1e-5 then
       Log.warn (fun m ->
           m "solution of %s violates constraints by %g"
             (Lp_model.name st.model) viol));
  sol

let solve model =
  Trace.in_span sp_solve @@ fun () -> checked_cold_solve (create model)

(* What a cold solve reads of an old state besides its LP data is
   reset ([setup_cold], [primal_loop]'s [recompute_d]) or forgotten
   here, so the answer is the one of a fresh state. *)
let solve_cold st =
  Trace.in_span sp_solve @@ fun () ->
  Basis.forget_density st.basis;
  Health.clear st.health;
  checked_cold_solve st
