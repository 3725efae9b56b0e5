(* Sparse linear-algebra kernels for the revised simplex: scatter/
   gather sparse-vector workspaces and an LU-factorized basis with a
   product-form (eta-file) update.  See DESIGN.md section 11.

   Everything here is deterministic: pivot choices break ties by index,
   traversals follow explicit array order, and no structure depends on
   hash-bucket order or wall time.  The workspaces are intentionally
   mutable and reused across calls so that the simplex pivot loop
   performs no per-pivot allocation (the eta arena grows by amortized
   doubling, which is the only allocation on the pivot path). *)

(* Exact-zero test, [Float_cmp.nonzero]'s semantics (NaN is nonzero,
   -0. is zero), kept unit-local: under dune's -opaque dev profile a
   call into another unit boxes its float argument on every nonzero. *)
let[@inline] nonzero x = not (Float.equal x 0.)

(* ------------------------------------------------------------------ *)
(* Sparse vector workspace                                             *)
(* ------------------------------------------------------------------ *)

module Svec = struct
  type t = {
    vals : float array; (* dense values; exactly 0. outside the pattern *)
    idx : int array; (* first [nnz] entries: the pattern, insertion order *)
    mark : bool array; (* pattern membership *)
    mutable nnz : int;
  }

  let create dim =
    {
      vals = Array.make dim 0.;
      idx = Array.make dim 0;
      mark = Array.make dim false;
      nnz = 0;
    }

  let nnz t = t.nnz

  let[@lint.noalloc] clear t =
    for k = 0 to t.nnz - 1 do
      let i = t.idx.(k) in
      t.vals.(i) <- 0.;
      t.mark.(i) <- false
    done;
    t.nnz <- 0

  let[@inline][@lint.noalloc] add t i v =
    if not t.mark.(i) then begin
      t.mark.(i) <- true;
      t.idx.(t.nnz) <- i;
      t.nnz <- t.nnz + 1
    end;
    t.vals.(i) <- t.vals.(i) +. v

  let values t = t.vals
  let pattern t = t.idx

  (* For each row [i] of [x]'s ascending pattern with [x.(i)] nonzero:
     the CSR row's entries scaled by [x.(i)], then [x.(i)] at the two
     unit columns [unit1 + i] and [unit2 + i]. *)
  let[@lint.noalloc] scatter_rows t x ~pat ~nnz ~row_start ~row_col ~row_val
      ~unit1 ~unit2 =
    for p = 0 to nnz - 1 do
      let i = pat.(p) in
      let xi = x.(i) in
      if nonzero xi then begin
        for c = row_start.(i) to row_start.(i + 1) - 1 do
          add t row_col.(c) (xi *. row_val.(c))
        done;
        add t (unit1 + i) xi;
        add t (unit2 + i) xi
      end
    done

end

(* ------------------------------------------------------------------ *)
(* Growable arenas (amortized doubling, reused across factorizations)  *)
(* ------------------------------------------------------------------ *)

let[@lint.alloc_ok "amortized-doubling arena growth"] grow_i a needed =
  if Array.length a >= needed then a
  else begin
    let b = Array.make (max needed (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let[@lint.alloc_ok "amortized-doubling arena growth"] grow_f a needed =
  if Array.length a >= needed then a
  else begin
    let b = Array.make (max needed (2 * Array.length a)) 0. in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let[@lint.noalloc] nonzeros v m pat =
  let k = ref 0 in
  for i = 0 to m - 1 do
    if nonzero v.(i) then begin
      pat.(!k) <- i;
      incr k
    end
  done;
  !k

(* ------------------------------------------------------------------ *)
(* LU-factorized basis with eta-file updates                           *)
(* ------------------------------------------------------------------ *)

module Basis = struct
  (* Factorization: P B Q = L U with L unit lower triangular and U
     upper triangular in "step" space (step k pivots row [prow.(k)] on
     the basis column at position [qpos.(k)]).  Columns are processed
     in ascending-nonzero-count order (static Markowitz: unit slack
     columns pivot first and produce no fill), rows are chosen by
     threshold partial pivoting with a static row-degree (Markowitz)
     merit among the numerically acceptable candidates.

     Updates: after a simplex pivot replaces the basic variable at
     position r by a column whose FTRAN image is w, the new basis is
     B' = B E where E is the identity with column r replaced by w.
     E^-1 is applied after the LU solves in FTRAN and before them
     (transposed, in reverse order) in BTRAN; the (r, w) pairs are the
     eta file, stored sparsely in one arena.

     Solves are hypersparse (Hall & McKinnon 2005): a solve visits only
     the steps and etas one of whose inputs is nonzero, in the order the
     full sweep would, and returns the ascending pattern of its result.
     FTRAN pushes along the stored L, U and eta columns; BTRAN pulls
     through them, and finds the steps to pull through the transposed
     patterns [ut]/[lt] and the per-position eta chains. *)

  let threshold = 0.01 (* relative pivot-acceptance threshold *)
  let abs_pivot_tol = 1e-11 (* below this a column is deferred/patched *)
  let eta_pivot_tol = 1e-9 (* below this an update forces refactorization *)

  type t = {
    m : int;
    eta_limit : int;
    (* LU factors *)
    prow : int array; (* step -> pivot row *)
    qpos : int array; (* step -> basis position *)
    step_of_row : int array; (* row -> step (-1 while factoring) *)
    step_of_pos : int array; (* basis position -> step *)
    l_start : int array; (* length m+1 *)
    mutable l_idx : int array; (* row indices *)
    mutable l_val : float array;
    mutable l_len : int;
    u_start : int array; (* length m+1 *)
    mutable u_idx : int array; (* earlier-step indices *)
    mutable u_val : float array;
    mutable u_len : int;
    u_diag : float array;
    active : int array; (* steps with a nonempty L column, ascending *)
    mutable n_active : int;
    (* eta file *)
    mutable e_pos : int array;
    mutable e_diag : float array;
    mutable e_start : int array; (* length n_eta+1 *)
    mutable e_idx : int array;
    mutable e_val : float array;
    mutable n_eta : int;
    mutable e_len : int;
    (* per-position chains over the eta entries, newest first:
       [e_head.(i)] is the newest entry at position [i] (-1: none),
       [e_next] the next older entry at the same position *)
    e_head : int array;
    mutable e_next : int array;
    (* transposed patterns for BTRAN, rebuilt by [factor]: [ut_idx]
       lists, per step [s], the later steps whose U column has an entry
       at [s]; [lt_idx], per step [k], the earlier steps whose L column
       has an entry at row [prow.(k)] *)
    ut_start : int array; (* length m+1 *)
    mutable ut_idx : int array;
    lt_start : int array; (* length m+1; [row_cnt]'s array *)
    mutable lt_idx : int array;
    (* hypersparse solve scratch, on the arrays of factor-only scratch
       (named after their factor use below) *)
    stamp : int array; (* mark: [stamp.(i) = gen]; [col_nnz]'s array *)
    mutable gen : int;
    heap : int array; (* min-heap of steps or positions; [order]'s array *)
    mutable heap_len : int;
    list : int array; (* visited steps, candidates; [deferred]'s array *)
    dense_nnz : int; (* a result with this many nonzeros is dense *)
    mutable ftran_nnz : int; (* nonzeros of the last FTRAN result *)
    mutable btran_nnz : int; (* nonzeros of the last BTRAN result *)
    (* factorization scratch *)
    step_vec : float array;
        (* step-space solve workspace, and the values of the factor's
           column workspace; zero between calls *)
    mutable ws_nnz : int;
        (* the factor's column workspace: values in [step_vec], pattern
           (insertion order) in [ut_start], members stamped [gen] *)
    row_cnt : int array; (* static row degrees of the current basis *)
    order : int array; (* column processing order *)
    col_nnz : int array;
    c_start : int array; (* collected basis columns, length m+1 *)
    mutable c_idx : int array;
    mutable c_val : float array;
    deferred : int array; (* positions without an acceptable pivot *)
    mutable n_deferred : int;
    mutable factored : bool;
    (* numerical-health stats (DESIGN.md section 15).  A preallocated
       float array rather than mutable float fields: stores into a
       float-only array never box, so [update] stays noalloc-clean.
       Layout: 0 max|B|, 1 max|U| (incl diag), 2 min|u_diag|,
       3 max|u_diag|, 4 min|eta diag|, 5 max eta growth ratio,
       6 ||B||_1 (max column abs-sum). *)
    stat : float array;
    mutable stat_valid : bool; (* B/U entry stats computed for this LU *)
    mutable eta_rejections : int; (* updates refused for a tiny pivot *)
  }

  (* The density rule.  A hypersparse solve pays a heap step, about
     log2 k compares, for each of the k entries it visits; the full
     sweep pays one pass over all m.  A result of at least the k where
     k * bits(k) reaches m is dense. *)
  let dense_threshold m =
    let rec bits k = if k = 0 then 0 else 1 + bits (k lsr 1) in
    let rec go k = if k * bits k >= m then k else go (k + 1) in
    go 1

  let create ?eta_limit m =
    let eta_limit =
      match eta_limit with
      | Some l -> max 1 l
      | None -> max 64 (m / 2)
    in
    (* the per-eta arrays hold a full eta file (of up to [max 64 m]
       etas) without growing *)
    let eta_slots = min eta_limit (max 64 m) in
    let row_cnt = Array.make (m + 1) 0 and ut_start = Array.make (m + 1) 0 in
    let order = Array.make (max 1 m) 0 and col_nnz = Array.make (max 1 m) 0 in
    let deferred = Array.make (max 1 m) 0 in
    let step_vec = Array.make (max 1 m) 0. in
    {
      m;
      eta_limit;
      prow = Array.make (max 1 m) 0;
      qpos = Array.make (max 1 m) 0;
      step_of_row = Array.make (max 1 m) (-1);
      step_of_pos = Array.make (max 1 m) (-1);
      l_start = Array.make (m + 1) 0;
      l_idx = Array.make (max 16 m) 0;
      l_val = Array.make (max 16 m) 0.;
      l_len = 0;
      u_start = Array.make (m + 1) 0;
      u_idx = Array.make (max 16 m) 0;
      u_val = Array.make (max 16 m) 0.;
      u_len = 0;
      u_diag = Array.make (max 1 m) 0.;
      active = Array.make (max 1 m) 0;
      n_active = 0;
      e_pos = Array.make eta_slots 0;
      e_diag = Array.make eta_slots 0.;
      e_start = Array.make (eta_slots + 1) 0;
      e_idx = Array.make 64 0;
      e_val = Array.make 64 0.;
      n_eta = 0;
      e_len = 0;
      e_head = Array.make (max 1 m) (-1);
      e_next = Array.make 64 0;
      ut_start;
      ut_idx = [||];
      lt_start = row_cnt;
      lt_idx = [||];
      stamp = col_nnz;
      gen = 0;
      heap = order;
      heap_len = 0;
      list = deferred;
      dense_nnz = dense_threshold m;
      ftran_nnz = 0;
      btran_nnz = 0;
      step_vec;
      ws_nnz = 0;
      row_cnt;
      order;
      col_nnz;
      c_start = Array.make (m + 1) 0;
      c_idx = Array.make (max 16 m) 0;
      c_val = Array.make (max 16 m) 0.;
      deferred;
      n_deferred = 0;
      factored = false;
      stat = Array.make 8 0.;
      stat_valid = false;
      eta_rejections = 0;
    }

  (* Every array is copied once, and the scratch arrays that share one
     array in [create] share one copy. *)
  let copy t =
    let row_cnt = Array.copy t.row_cnt and col_nnz = Array.copy t.col_nnz in
    let order = Array.copy t.order and deferred = Array.copy t.deferred in
    {
      t with
      prow = Array.copy t.prow;
      qpos = Array.copy t.qpos;
      step_of_row = Array.copy t.step_of_row;
      step_of_pos = Array.copy t.step_of_pos;
      l_start = Array.copy t.l_start;
      l_idx = Array.copy t.l_idx;
      l_val = Array.copy t.l_val;
      u_start = Array.copy t.u_start;
      u_idx = Array.copy t.u_idx;
      u_val = Array.copy t.u_val;
      u_diag = Array.copy t.u_diag;
      active = Array.copy t.active;
      e_pos = Array.copy t.e_pos;
      e_diag = Array.copy t.e_diag;
      e_start = Array.copy t.e_start;
      e_idx = Array.copy t.e_idx;
      e_val = Array.copy t.e_val;
      e_head = Array.copy t.e_head;
      e_next = Array.copy t.e_next;
      ut_start = Array.copy t.ut_start;
      ut_idx = Array.copy t.ut_idx;
      lt_start = row_cnt;
      lt_idx = Array.copy t.lt_idx;
      stamp = col_nnz;
      heap = order;
      list = deferred;
      step_vec = Array.copy t.step_vec;
      row_cnt;
      order;
      col_nnz;
      c_start = Array.copy t.c_start;
      c_idx = Array.copy t.c_idx;
      c_val = Array.copy t.c_val;
      deferred;
      stat = Array.copy t.stat;
    }

  let eta_count t = t.n_eta
  let eta_nnz t = t.e_len

  type factors = {
    f_m : int;
    f_prow : int array;
    f_qpos : int array;
    f_active : int array;
    f_n_active : int;
    f_l_start : int array;
    f_l_idx : int array;
    f_l_val : float array;
    f_u_start : int array;
    f_u_idx : int array;
    f_u_val : float array;
    f_u_diag : float array;
    f_e_pos : int array;
    f_e_diag : float array;
    f_e_start : int array;
    f_e_idx : int array;
    f_e_val : float array;
    f_n_eta : int;
  }

  let factors t =
    {
      f_m = t.m;
      f_prow = t.prow;
      f_qpos = t.qpos;
      f_active = t.active;
      f_n_active = t.n_active;
      f_l_start = t.l_start;
      f_l_idx = t.l_idx;
      f_l_val = t.l_val;
      f_u_start = t.u_start;
      f_u_idx = t.u_idx;
      f_u_val = t.u_val;
      f_u_diag = t.u_diag;
      f_e_pos = t.e_pos;
      f_e_diag = t.e_diag;
      f_e_start = t.e_start;
      f_e_idx = t.e_idx;
      f_e_val = t.e_val;
      f_n_eta = t.n_eta;
    }

  let needs_refactor t =
    t.n_eta >= t.eta_limit || t.e_len > 4 * (t.l_len + t.u_len + t.m)

  (* ---- factorization ---- *)

  let[@inline] push_l t row v =
    t.l_idx <- grow_i t.l_idx (t.l_len + 1);
    t.l_val <- grow_f t.l_val (t.l_len + 1);
    t.l_idx.(t.l_len) <- row;
    t.l_val.(t.l_len) <- v;
    t.l_len <- t.l_len + 1

  let[@inline] push_u t step v =
    t.u_idx <- grow_i t.u_idx (t.u_len + 1);
    t.u_val <- grow_f t.u_val (t.u_len + 1);
    t.u_idx.(t.u_len) <- step;
    t.u_val.(t.u_len) <- v;
    t.u_len <- t.u_len + 1

  (* Record step [k]: pivot [row] on basis position [pos] whose
     eliminated column is currently in the column workspace (empty for a
     patched unit column). *)
  let[@inline] finish_step t k ~pos ~row ~diag =
    t.prow.(k) <- row;
    t.qpos.(k) <- pos;
    t.step_of_row.(row) <- k;
    t.step_of_pos.(pos) <- k;
    t.u_diag.(k) <- diag

  let unit_col row = -1 - row

  (* Append one collected basis entry. *)
  let[@inline] push_c t len row v =
    t.c_idx.(len) <- row;
    t.c_val.(len) <- v;
    t.row_cnt.(row) <- t.row_cnt.(row) + 1

  (* The transposed patterns of the finished factors: counts, prefix
     sums, then a fill in ascending step order ([list] is the cursor). *)
  let build_transposes t =
    let m = t.m in
    Array.fill t.ut_start 0 (m + 1) 0;
    Array.fill t.lt_start 0 (m + 1) 0;
    for k = 0 to m - 1 do
      for c = t.u_start.(k) to t.u_start.(k + 1) - 1 do
        let s = t.u_idx.(c) in
        t.ut_start.(s + 1) <- t.ut_start.(s + 1) + 1
      done;
      for c = t.l_start.(k) to t.l_start.(k + 1) - 1 do
        let s = t.step_of_row.(t.l_idx.(c)) in
        t.lt_start.(s + 1) <- t.lt_start.(s + 1) + 1
      done
    done;
    for k = 0 to m - 1 do
      t.ut_start.(k + 1) <- t.ut_start.(k + 1) + t.ut_start.(k);
      t.lt_start.(k + 1) <- t.lt_start.(k + 1) + t.lt_start.(k)
    done;
    t.ut_idx <- grow_i t.ut_idx t.u_len;
    t.lt_idx <- grow_i t.lt_idx t.l_len;
    let cur = t.list in
    Array.blit t.ut_start 0 cur 0 m;
    for k = 0 to m - 1 do
      for c = t.u_start.(k) to t.u_start.(k + 1) - 1 do
        let s = t.u_idx.(c) in
        t.ut_idx.(cur.(s)) <- k;
        cur.(s) <- cur.(s) + 1
      done
    done;
    Array.blit t.lt_start 0 cur 0 m;
    for k = 0 to m - 1 do
      for c = t.l_start.(k) to t.l_start.(k + 1) - 1 do
        let s = t.step_of_row.(t.l_idx.(c)) in
        t.lt_idx.(cur.(s)) <- k;
        cur.(s) <- cur.(s) + 1
      done
    done

  (* The factor's column workspace, an [Svec] on the solve scratch. *)
  let[@inline] ws_add t i v =
    if t.stamp.(i) <> t.gen then begin
      t.stamp.(i) <- t.gen;
      t.ut_start.(t.ws_nnz) <- i;
      t.ws_nnz <- t.ws_nnz + 1
    end;
    t.step_vec.(i) <- t.step_vec.(i) +. v

  let ws_clear t =
    for p = 0 to t.ws_nnz - 1 do
      t.step_vec.(t.ut_start.(p)) <- 0.
    done;
    t.ws_nnz <- 0;
    t.gen <- t.gen + 1

  let factor t ~col_start ~row_idx ~values ~cols =
    let m = t.m in
    t.l_len <- 0;
    t.u_len <- 0;
    t.n_active <- 0;
    t.n_eta <- 0;
    t.e_len <- 0;
    t.e_start.(0) <- 0;
    t.n_deferred <- 0;
    t.factored <- false;
    t.stat.(4) <- infinity;
    t.stat.(5) <- 0.;
    t.stat_valid <- false;
    t.eta_rejections <- 0;
    Array.fill t.step_of_row 0 m (-1);
    Array.fill t.step_of_pos 0 m (-1);
    Array.fill t.e_head 0 m (-1);
    Array.fill t.row_cnt 0 m 0;
    (* collect the basis columns once *)
    let len = ref 0 in
    for pos = 0 to m - 1 do
      t.c_start.(pos) <- !len;
      let j = cols.(pos) in
      if j >= 0 then begin
        let k0 = col_start.(j) and k1 = col_start.(j + 1) in
        t.c_idx <- grow_i t.c_idx (!len + k1 - k0);
        t.c_val <- grow_f t.c_val (!len + k1 - k0);
        for k = k0 to k1 - 1 do
          push_c t !len row_idx.(k) values.(k);
          incr len
        done
      end
      else begin
        t.c_idx <- grow_i t.c_idx (!len + 1);
        t.c_val <- grow_f t.c_val (!len + 1);
        push_c t !len (-1 - j) 1.0;
        incr len
      end;
      t.col_nnz.(pos) <- !len - t.c_start.(pos)
    done;
    t.c_start.(m) <- !len;
    (* static Markowitz column order: ascending nonzero count, then
       position (unit columns first; deterministic) *)
    for pos = 0 to m - 1 do
      t.order.(pos) <- pos
    done;
    let cmp a b =
      let c = compare t.col_nnz.(a) t.col_nnz.(b) in
      if c <> 0 then c else compare a b
    in
    (* [order] has exactly [m] slots once [m > 0] *)
    if m > 0 then Array.sort cmp t.order;
    (* [col_nnz] is read; its array now stamps the column workspace *)
    Array.fill t.stamp 0 m 0;
    t.gen <- t.gen + 1;
    let step = ref 0 in
    for o = 0 to m - 1 do
      let pos = t.order.(o) in
      (* scatter the column *)
      for c = t.c_start.(pos) to t.c_start.(pos + 1) - 1 do
        ws_add t t.c_idx.(c) t.c_val.(c)
      done;
      (* eliminate with the already-computed L columns, ascending step
         order (dependencies only point forward, so one pass is exact) *)
      for a = 0 to t.n_active - 1 do
        let s = t.active.(a) in
        let pr = t.prow.(s) in
        if t.stamp.(pr) = t.gen then begin
          let x = t.step_vec.(pr) in
          if nonzero x then
            for c = t.l_start.(s) to t.l_start.(s + 1) - 1 do
              ws_add t t.l_idx.(c) (-.t.l_val.(c) *. x)
            done
        end
      done;
      (* pivot selection: threshold partial pivoting with static
         row-degree merit, deterministic index tie-break *)
      let pat = t.ut_start and vals = t.step_vec in
      let vmax = ref 0. in
      for p = 0 to t.ws_nnz - 1 do
        let row = pat.(p) in
        if t.step_of_row.(row) < 0 then begin
          let a = Float.abs vals.(row) in
          if a > !vmax then vmax := a
        end
      done;
      if !vmax < abs_pivot_tol then begin
        (* numerically/structurally dependent column: defer, patch later *)
        t.deferred.(t.n_deferred) <- pos;
        t.n_deferred <- t.n_deferred + 1;
        ws_clear t
      end
      else begin
        let acceptable = threshold *. !vmax in
        let prow = ref (-1) and pmerit = ref max_int in
        for p = 0 to t.ws_nnz - 1 do
          let row = pat.(p) in
          if t.step_of_row.(row) < 0 && Float.abs vals.(row) >= acceptable
          then begin
            let merit = t.row_cnt.(row) in
            if
              merit < !pmerit || (merit = !pmerit && (!prow < 0 || row < !prow))
            then begin
              prow := row;
              pmerit := merit
            end
          end
        done;
        let row = !prow in
        let k = !step in
        let piv = vals.(row) in
        t.l_start.(k) <- t.l_len;
        t.u_start.(k) <- t.u_len;
        for p = 0 to t.ws_nnz - 1 do
          let r = pat.(p) in
          let v = vals.(r) in
          if nonzero v then
            if t.step_of_row.(r) >= 0 then push_u t t.step_of_row.(r) v
            else if r <> row then push_l t r (v /. piv)
        done;
        t.l_start.(k + 1) <- t.l_len;
        t.u_start.(k + 1) <- t.u_len;
        finish_step t k ~pos ~row ~diag:piv;
        if t.l_start.(k + 1) > t.l_start.(k) then begin
          t.active.(t.n_active) <- k;
          t.n_active <- t.n_active + 1
        end;
        incr step;
        ws_clear t
      end
    done;
    (* patch deferred positions with unit columns of the unpivoted
       rows, pairing both in ascending order (deterministic) *)
    let patched = ref [] in
    if t.n_deferred > 0 then begin
      let defer = Array.sub t.deferred 0 t.n_deferred in
      Array.sort compare defer;
      let next_row = ref 0 in
      Array.iter
        (fun pos ->
          while t.step_of_row.(!next_row) >= 0 do
            incr next_row
          done;
          let row = !next_row in
          let k = !step in
          t.l_start.(k) <- t.l_len;
          t.u_start.(k) <- t.u_len;
          t.l_start.(k + 1) <- t.l_len;
          t.u_start.(k + 1) <- t.u_len;
          finish_step t k ~pos ~row ~diag:1.;
          incr step;
          patched := (pos, row) :: !patched)
        defer
    end;
    build_transposes t;
    t.factored <- true;
    List.rev !patched

  (* Health stats of the current LU: entry magnitudes of B (and its
     1-norm) from the collected columns, of U from the finished
     factors.  Computed lazily on first accessor call after a factor —
     [factor] itself pays nothing, and unsampled refactorizations
     (the production stride skips most) never run this O(nnz) pass.
     The collected columns and U arrays persist until the next
     [factor], so the pass can run at any point of the epoch. *)
  let ensure_stats t =
    if not t.stat_valid then begin
      let m = t.m in
      t.stat.(0) <- 0.;
      t.stat.(1) <- 0.;
      t.stat.(2) <- (if m = 0 then 0. else infinity);
      t.stat.(3) <- 0.;
      t.stat.(6) <- 0.;
      for pos = 0 to m - 1 do
        let s = ref 0. in
        for c = t.c_start.(pos) to t.c_start.(pos + 1) - 1 do
          let a = Float.abs t.c_val.(c) in
          s := !s +. a;
          if a > t.stat.(0) then t.stat.(0) <- a
        done;
        if !s > t.stat.(6) then t.stat.(6) <- !s
      done;
      for c = 0 to t.u_len - 1 do
        let a = Float.abs t.u_val.(c) in
        if a > t.stat.(1) then t.stat.(1) <- a
      done;
      for k = 0 to m - 1 do
        let a = Float.abs t.u_diag.(k) in
        if a > t.stat.(1) then t.stat.(1) <- a;
        if a < t.stat.(2) then t.stat.(2) <- a;
        if a > t.stat.(3) then t.stat.(3) <- a
      done;
      t.stat_valid <- true
    end

  (* ---- solves ---- *)

  (* Binary min-heap over [heap.(0 .. heap_len-1)].  A descending walk
     pushes [lnot k], which reverses the order of non-negative keys. *)
  let[@inline][@lint.noalloc] heap_push t x =
    let h = t.heap in
    let i = ref t.heap_len in
    t.heap_len <- !i + 1;
    while !i > 0 && h.((!i - 1) / 2) > x do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- x

  let[@inline][@lint.noalloc] heap_pop t =
    let h = t.heap in
    let top = h.(0) in
    let n = t.heap_len - 1 in
    t.heap_len <- n;
    if n > 0 then begin
      let x = h.(n) in
      let i = ref 0 in
      let go = ref true in
      while !go do
        let l = (2 * !i) + 1 in
        if l >= n then go := false
        else begin
          let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
          if h.(c) < x then begin
            h.(!i) <- h.(c);
            i := c
          end
          else go := false
        end
      done;
      h.(!i) <- x
    end;
    top

  (* Mark [i] in the current generation; true when it was unmarked. *)
  let[@inline][@lint.noalloc] mark t i =
    if t.stamp.(i) = t.gen then false
    else begin
      t.stamp.(i) <- t.gen;
      true
    end

  let[@inline][@lint.noalloc] next_gen t =
    t.gen <- t.gen + 1;
    t.heap_len <- 0

  (* The result's pattern: the candidates [list.(0 .. cnt-1)] that hold
     a nonzero, ascending, into [pat].  [v] is zero off the candidates,
     so a scan of all [m] gives the same pattern when it is cheaper than
     sorting. *)
  let[@lint.noalloc] emit t v pat cnt =
    let k = ref 0 in
    if cnt >= t.dense_nnz then begin
      for i = 0 to t.m - 1 do
        if nonzero v.(i) then begin
          pat.(!k) <- i;
          incr k
        end
      done
    end
    else begin
      next_gen t;
      for q = 0 to cnt - 1 do
        heap_push t t.list.(q)
      done;
      while t.heap_len > 0 do
        let i = heap_pop t in
        if nonzero v.(i) then begin
          pat.(!k) <- i;
          incr k
        end
      done
    end;
    !k

  (* The full FTRAN sweep: v := E_k^-1 ... E_1^-1 Q U^-1 L^-1 P v over
     every step and eta. *)
  let[@lint.noalloc] ftran_full t v =
    let m = t.m in
    (* L solve in row space, ascending steps *)
    for a = 0 to t.n_active - 1 do
      let s = t.active.(a) in
      let x = v.(t.prow.(s)) in
      if nonzero x then
        for c = t.l_start.(s) to t.l_start.(s + 1) - 1 do
          v.(t.l_idx.(c)) <- v.(t.l_idx.(c)) -. (t.l_val.(c) *. x)
        done
    done;
    (* gather into step space *)
    let sv = t.step_vec in
    for k = 0 to m - 1 do
      sv.(k) <- v.(t.prow.(k))
    done;
    (* U back-substitution in step space *)
    for k = m - 1 downto 0 do
      let z = sv.(k) /. t.u_diag.(k) in
      sv.(k) <- z;
      if nonzero z then
        for c = t.u_start.(k) to t.u_start.(k + 1) - 1 do
          sv.(t.u_idx.(c)) <- sv.(t.u_idx.(c)) -. (t.u_val.(c) *. z)
        done
    done;
    (* scatter to basis-position space *)
    for k = 0 to m - 1 do
      v.(t.qpos.(k)) <- sv.(k);
      sv.(k) <- 0.
    done;
    (* eta file, oldest first: v_r := v_r / w_r; v_i -= w_i * v_r *)
    for e = 0 to t.n_eta - 1 do
      let r = t.e_pos.(e) in
      let vr = v.(r) /. t.e_diag.(e) in
      v.(r) <- vr;
      if nonzero vr then
        for c = t.e_start.(e) to t.e_start.(e + 1) - 1 do
          v.(t.e_idx.(c)) <- v.(t.e_idx.(c)) -. (t.e_val.(c) *. vr)
        done
    done

  (* The hypersparse FTRAN: the full sweep's operations on the steps
     and etas whose entry is nonzero, in the same order.  L and U push
     along their columns to later (L) or earlier (U) steps, so a heap
     of the steps reached yields them in sweep order; a skipped step
     or eta would only subtract products with an exact zero. *)
  let[@lint.noalloc] ftran_sparse t v pat nnz =
    let sv = t.step_vec and list = t.list in
    (* L solve in row space: reached steps, ascending *)
    next_gen t;
    for p = 0 to nnz - 1 do
      let k = t.step_of_row.(pat.(p)) in
      if mark t k then heap_push t k
    done;
    let cnt = ref 0 in
    while t.heap_len > 0 do
      let s = heap_pop t in
      list.(!cnt) <- s;
      incr cnt;
      let x = v.(t.prow.(s)) in
      if nonzero x then
        for c = t.l_start.(s) to t.l_start.(s + 1) - 1 do
          let i = t.l_idx.(c) in
          v.(i) <- v.(i) -. (t.l_val.(c) *. x);
          let k = t.step_of_row.(i) in
          if mark t k then heap_push t k
        done
    done;
    (* gather into step space, leaving [v] all zero *)
    next_gen t;
    for q = 0 to !cnt - 1 do
      let k = list.(q) in
      let r = t.prow.(k) in
      sv.(k) <- v.(r);
      v.(r) <- 0.;
      ignore (mark t k);
      heap_push t (lnot k)
    done;
    (* U back-substitution, descending, scattering each finished step
       to its basis position *)
    let out = ref 0 in
    while t.heap_len > 0 do
      let k = lnot (heap_pop t) in
      let z = sv.(k) /. t.u_diag.(k) in
      sv.(k) <- 0.;
      if nonzero z then begin
        for c = t.u_start.(k) to t.u_start.(k + 1) - 1 do
          let s = t.u_idx.(c) in
          sv.(s) <- sv.(s) -. (t.u_val.(c) *. z);
          if mark t s then heap_push t (lnot s)
        done;
        let pos = t.qpos.(k) in
        v.(pos) <- z;
        list.(!out) <- pos;
        incr out
      end
    done;
    (* eta file, oldest first, at nonzero pivot positions *)
    next_gen t;
    for q = 0 to !out - 1 do
      ignore (mark t list.(q))
    done;
    for e = 0 to t.n_eta - 1 do
      let r = t.e_pos.(e) in
      let x = v.(r) in
      if nonzero x then begin
        let vr = x /. t.e_diag.(e) in
        v.(r) <- vr;
        if nonzero vr then
          for c = t.e_start.(e) to t.e_start.(e + 1) - 1 do
            let i = t.e_idx.(c) in
            v.(i) <- v.(i) -. (t.e_val.(c) *. vr);
            if mark t i then begin
              list.(!out) <- i;
              incr out
            end
          done
      end
    done;
    emit t v pat !out

  (* FTRAN: in place, input indexed by row, output indexed by basis
     position: v := E_k^-1 ... E_1^-1 Q U^-1 L^-1 P v. *)
  let[@lint.noalloc] ftran t v ~pat ~nnz =
    if not t.factored then invalid_arg "Sparse.Basis.ftran: not factored";
    let k =
      if nnz >= t.dense_nnz || t.ftran_nnz >= t.dense_nnz then begin
        ftran_full t v;
        nonzeros v t.m pat
      end
      else ftran_sparse t v pat nnz
    in
    t.ftran_nnz <- k;
    k

  (* The full BTRAN sweep over every eta and step: y solves
     y^T B = c^T, input indexed by basis position, output by row. *)
  let[@lint.noalloc] btran_full t v =
    let m = t.m in
    (* eta file, newest first: c_r := (c_r - sum w_i c_i) / w_r *)
    for e = t.n_eta - 1 downto 0 do
      let r = t.e_pos.(e) in
      let s = ref v.(r) in
      for c = t.e_start.(e) to t.e_start.(e + 1) - 1 do
        s := !s -. (t.e_val.(c) *. v.(t.e_idx.(c)))
      done;
      v.(r) <- !s /. t.e_diag.(e)
    done;
    (* gather into step space and solve U^T forward *)
    let sv = t.step_vec in
    for k = 0 to m - 1 do
      let s = ref v.(t.qpos.(k)) in
      for c = t.u_start.(k) to t.u_start.(k + 1) - 1 do
        s := !s -. (t.u_val.(c) *. sv.(t.u_idx.(c)))
      done;
      sv.(k) <- !s /. t.u_diag.(k)
    done;
    (* L^T backward, writing the row-space result in place *)
    Array.fill v 0 m 0.;
    for k = m - 1 downto 0 do
      let s = ref sv.(k) in
      sv.(k) <- 0.;
      for c = t.l_start.(k) to t.l_start.(k + 1) - 1 do
        s := !s -. (t.l_val.(c) *. v.(t.l_idx.(c)))
      done;
      v.(t.prow.(k)) <- !s
    done

  (* Flag, for the running BTRAN, every eta older than [below] with an
     entry at position [i].  A flagged eta holds its pivot position
     flipped, [lnot r < 0], until the BTRAN reaches it (CSparse marks
     nodes the same way on its column pointers). *)
  let[@inline][@lint.noalloc] flag_readers t i ~below =
    let c = ref t.e_head.(i) in
    let first = t.e_start.(below) in
    while !c >= 0 do
      if !c < first then begin
        (* the entry's eta: the last [e] with [e_start.(e) <= c] *)
        let lo = ref 0 in
        let hi = ref (below - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi + 1) / 2 in
          if t.e_start.(mid) <= !c then lo := mid else hi := mid - 1
        done;
        let r = t.e_pos.(!lo) in
        if r >= 0 then t.e_pos.(!lo) <- lnot r
      end;
      c := t.e_next.(!c)
    done

  (* The hypersparse BTRAN: the full sweep's operations on the etas
     and steps one of whose inputs is nonzero, in the same order.  Each
     visited eta or step is summed exactly as in the full sweep; an
     unvisited one would sum only products with an exact zero.  An eta
     is visited when its pivot position is nonzero or an entry reads a
     position that has been nonzero (flagged through the chains); a U
     step when its position is nonzero or [ut] reaches it, an L step
     when its U result is nonzero or [lt] reaches it. *)
  let[@lint.noalloc] btran_sparse t v pat nnz =
    let sv = t.step_vec and list = t.list in
    (* eta file, newest first *)
    next_gen t;
    let cnt = ref 0 in
    for p = 0 to nnz - 1 do
      let i = pat.(p) in
      if mark t i then begin
        list.(!cnt) <- i;
        incr cnt;
        flag_readers t i ~below:t.n_eta
      end
    done;
    for e = t.n_eta - 1 downto 0 do
      let r0 = t.e_pos.(e) in
      let r = if r0 < 0 then lnot r0 else r0 in
      if r0 < 0 || nonzero v.(r) then begin
        t.e_pos.(e) <- r;
        let s = ref v.(r) in
        for c = t.e_start.(e) to t.e_start.(e + 1) - 1 do
          s := !s -. (t.e_val.(c) *. v.(t.e_idx.(c)))
        done;
        let x = !s /. t.e_diag.(e) in
        v.(r) <- x;
        if nonzero x && mark t r then begin
          list.(!cnt) <- r;
          incr cnt;
          flag_readers t r ~below:e
        end
      end
    done;
    (* U^T forward in step space, ascending; [v] is left all zero *)
    next_gen t;
    for q = 0 to !cnt - 1 do
      let k = t.step_of_pos.(list.(q)) in
      ignore (mark t k);
      heap_push t k
    done;
    let nst = ref 0 in
    while t.heap_len > 0 do
      let k = heap_pop t in
      let pos = t.qpos.(k) in
      let s = ref v.(pos) in
      v.(pos) <- 0.;
      for c = t.u_start.(k) to t.u_start.(k + 1) - 1 do
        s := !s -. (t.u_val.(c) *. sv.(t.u_idx.(c)))
      done;
      let z = !s /. t.u_diag.(k) in
      sv.(k) <- z;
      if nonzero z then begin
        list.(!nst) <- k;
        incr nst;
        for c = t.ut_start.(k) to t.ut_start.(k + 1) - 1 do
          let k' = t.ut_idx.(c) in
          if mark t k' then heap_push t k'
        done
      end
    done;
    (* L^T backward, writing the row-space result *)
    next_gen t;
    for q = 0 to !nst - 1 do
      let k = list.(q) in
      ignore (mark t k);
      heap_push t (lnot k)
    done;
    let out = ref 0 in
    while t.heap_len > 0 do
      let k = lnot (heap_pop t) in
      let s = ref sv.(k) in
      sv.(k) <- 0.;
      for c = t.l_start.(k) to t.l_start.(k + 1) - 1 do
        s := !s -. (t.l_val.(c) *. v.(t.l_idx.(c)))
      done;
      let row = t.prow.(k) in
      v.(row) <- !s;
      if nonzero !s then begin
        list.(!out) <- row;
        incr out;
        for c = t.lt_start.(k) to t.lt_start.(k + 1) - 1 do
          let k' = t.lt_idx.(c) in
          if mark t k' then heap_push t (lnot k')
        done
      end
    done;
    emit t v pat !out

  (* BTRAN: in place, input indexed by basis position, output indexed
     by row: y solves y^T B = c^T. *)
  let[@lint.noalloc] btran t v ~pat ~nnz =
    if not t.factored then invalid_arg "Sparse.Basis.btran: not factored";
    let k =
      if nnz >= t.dense_nnz || t.btran_nnz >= t.dense_nnz then begin
        btran_full t v;
        nonzeros v t.m pat
      end
      else btran_sparse t v pat nnz
    in
    t.btran_nnz <- k;
    k

  (* rho := row r of B^-1 (the BTRAN of a basis-position unit vector);
     [v] holds a previous result whose pattern is [pat.(0 .. nnz-1)]. *)
  let[@lint.noalloc] btran_unit t r v ~pat ~nnz =
    for p = 0 to nnz - 1 do
      v.(pat.(p)) <- 0.
    done;
    v.(r) <- 1.;
    pat.(0) <- r;
    btran t v ~pat ~nnz:1

  let forget_density t =
    t.ftran_nnz <- 0;
    t.btran_nnz <- 0

  (* ---- product-form update ---- *)

  let[@lint.noalloc] update t ~r ~w ~pat ~nnz =
    if not t.factored then invalid_arg "Sparse.Basis.update: not factored";
    if Float.abs w.(r) < eta_pivot_tol then begin
      t.eta_rejections <- t.eta_rejections + 1;
      false
    end
    else begin
      let e = t.n_eta in
      t.e_pos <- grow_i t.e_pos (e + 1);
      t.e_diag <- grow_f t.e_diag (e + 1);
      t.e_start <- grow_i t.e_start (e + 2);
      t.e_idx <- grow_i t.e_idx (t.e_len + nnz);
      t.e_val <- grow_f t.e_val (t.e_len + nnz);
      t.e_next <- grow_i t.e_next (t.e_len + nnz);
      t.e_pos.(e) <- r;
      t.e_diag.(e) <- w.(r);
      let wr = Float.abs w.(r) in
      let wmax = ref wr in
      let len = ref t.e_len in
      for p = 0 to nnz - 1 do
        let i = pat.(p) in
        if i <> r && nonzero w.(i) then begin
          let a = Float.abs w.(i) in
          if a > !wmax then wmax := a;
          t.e_idx.(!len) <- i;
          t.e_val.(!len) <- w.(i);
          t.e_next.(!len) <- t.e_head.(i);
          t.e_head.(i) <- !len;
          incr len
        end
      done;
      if wr < t.stat.(4) then t.stat.(4) <- wr;
      let growth = !wmax /. wr in
      if growth > t.stat.(5) then t.stat.(5) <- growth;
      t.e_len <- !len;
      t.e_start.(e + 1) <- !len;
      t.n_eta <- e + 1;
      true
    end

  (* ---- numerical-health accessors (DESIGN.md section 15) ---- *)

  (* Element growth of the factorization: max|U| / max|B|.  Large
     values mean threshold pivoting admitted an unstable elimination. *)
  let lu_growth t =
    ensure_stats t;
    if t.stat.(0) > 0. then t.stat.(1) /. t.stat.(0) else 1.

  let u_diag_min t =
    ensure_stats t;
    if t.m = 0 then 0. else t.stat.(2)

  let u_diag_max t =
    ensure_stats t;
    t.stat.(3)

  let norm1 t =
    ensure_stats t;
    t.stat.(6)
  let eta_rejections t = t.eta_rejections
  let eta_min_diag t = if t.n_eta = 0 then infinity else t.stat.(4)
  let eta_growth t = t.stat.(5)

  (* Rows whose U pivot is tiny relative to the largest: the basis is
     within a relative [rtol] perturbation of singular along them.
     Ascending row order for deterministic reports. *)
  let near_singular_rows t ~rtol =
    if not t.factored then []
    else begin
      let dmax = u_diag_max t in
      let acc = ref [] in
      for k = t.m - 1 downto 0 do
        let a = Float.abs t.u_diag.(k) in
        if a < rtol *. dmax then acc := (t.prow.(k), a) :: !acc
      done;
      List.sort (fun (a, _) (b, _) -> compare a b) !acc
    end
end
