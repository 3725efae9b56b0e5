(* Tests of the sparse revised simplex core.

   Every Optimal answer is checked by an LP duality certificate
   (Certificate: primal feasibility, dual signs, zero duality gap,
   recomputed from the model) over random LPs, free and one-sided
   variables, appended cut rows, warm bound/RHS walks, the doctor
   fixtures and min-MLU models over catalog topologies; the checker
   itself must reject mutated answers.  The eta-update path is
   checked against the refactorize-every-pivot path (an eta limit of 1),
   the Sparse kernel itself against a dense Gaussian elimination, and
   its hypersparse solves against the full sweeps, bit for bit. *)

open Flexile_lp
module Sp = Sparse
module Prng = Flexile_util.Prng
module Graph = Flexile_net.Graph
module Tunnels = Flexile_net.Tunnels

(* ---- Svec: sparse accumulator semantics ---- *)

(* One row [x = 1] of a CSR matrix whose entries hit column 3 twice,
   then the two unit columns 8 and 9: five accumulations into four
   entries. *)
let test_svec () =
  let v = Sp.Svec.create 10 in
  Sp.Svec.scatter_rows v [| 1. |] ~pat:[| 0 |] ~nnz:1 ~row_start:[| 0; 3 |]
    ~row_col:[| 3; 7; 3 |] ~row_val:[| 1.5; 2.; 0.5 |] ~unit1:8 ~unit2:9;
  Alcotest.(check int) "nnz counts patterns, not adds" 4 (Sp.Svec.nnz v);
  let get i = (Sp.Svec.values v).(i) in
  Alcotest.(check (float 0.)) "accumulated" 2. (get 3);
  Alcotest.(check (float 0.)) "untouched reads zero" 0. (get 5);
  let seen =
    List.init (Sp.Svec.nnz v) (fun k ->
        let i = (Sp.Svec.pattern v).(k) in
        (i, get i))
  in
  Alcotest.(check (list (pair int (float 0.))))
    "insertion order" [ (3, 2.); (7, 2.); (8, 1.); (9, 1.) ] seen;
  Sp.Svec.clear v;
  Alcotest.(check int) "clear resets" 0 (Sp.Svec.nnz v);
  Alcotest.(check (float 0.)) "cleared entry" 0. (get 3)

(* ---- Basis kernel vs dense Gaussian elimination ---- *)

let dense_solve a b =
  let m = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  for c = 0 to m - 1 do
    let p = ref c in
    for r = c + 1 to m - 1 do
      if Float.abs a.(r).(c) > Float.abs a.(!p).(c) then p := r
    done;
    let tmp = a.(c) in
    a.(c) <- a.(!p);
    a.(!p) <- tmp;
    let tb = b.(c) in
    b.(c) <- b.(!p);
    b.(!p) <- tb;
    let piv = a.(c).(c) in
    for r = 0 to m - 1 do
      if r <> c && Float.abs a.(r).(c) > 0. then begin
        let f = a.(r).(c) /. piv in
        for k = c to m - 1 do
          a.(r).(k) <- a.(r).(k) -. (f *. a.(c).(k))
        done;
        b.(r) <- b.(r) -. (f *. b.(c))
      end
    done
  done;
  Array.init m (fun i -> b.(i) /. a.(i).(i))

(* random sparse columns: a strong diagonal plus a few off-diagonal
   entries, so the matrix is invertible and the dense reference is
   numerically trustworthy *)
let random_cols prng m =
  Array.init m (fun j ->
      let l = ref [ (j, 1. +. Prng.uniform prng 0. 3.) ] in
      for _ = 1 to 3 do
        let i = Prng.int prng m in
        if i <> j then l := (i, Prng.uniform prng (-2.) 2.) :: !l
      done;
      !l)

(* factor the basis whose column at position pos is the entry list
   cols.(pos), given to [Basis.factor] as a CSC matrix *)
let factor_cols basis cols =
  let col_start = Array.make (Array.length cols + 1) 0 in
  Array.iteri (fun j l -> col_start.(j + 1) <- col_start.(j) + List.length l) cols;
  let entries = List.concat (Array.to_list cols) in
  Sp.Basis.factor basis ~col_start
    ~row_idx:(Array.of_list (List.map fst entries))
    ~values:(Array.of_list (List.map snd entries))
    ~cols:(Array.init (Array.length cols) Fun.id)

(* A solve of a dense vector, its input pattern found by a scan. *)
let solve kernel basis v =
  let m = Array.length v in
  let pat = Array.make m 0 in
  ignore (kernel basis v ~pat ~nnz:(Sp.nonzeros v m pat))

let cols_to_dense m cols =
  let d = Array.init m (fun _ -> Array.make m 0.) in
  Array.iteri
    (fun j l -> List.iter (fun (i, v) -> d.(i).(j) <- d.(i).(j) +. v) l)
    cols;
  d

let test_kernel_vs_dense () =
  let prng = Prng.of_string "sparse-kernel-vs-dense" in
  for trial = 1 to 40 do
    let m = 5 + Prng.int prng 50 in
    let cols = random_cols prng m in
    let dense = cols_to_dense m cols in
    let basis = Sp.Basis.create m in
    let patched =
      factor_cols basis cols
    in
    Alcotest.(check int)
      (Printf.sprintf "trial %d: invertible matrix needs no patch" trial)
      0 (List.length patched);
    let b = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let x_ref = dense_solve dense b in
    let x = Array.copy b in
    solve Sp.Basis.ftran basis x;
    for i = 0 to m - 1 do
      if Float.abs (x.(i) -. x_ref.(i)) > 1e-7 then
        Alcotest.failf "trial %d (m=%d): ftran row %d: %.12g vs %.12g" trial m
          i x.(i) x_ref.(i)
    done;
    let c = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let dense_t = Array.init m (fun i -> Array.init m (fun j -> dense.(j).(i))) in
    let y_ref = dense_solve dense_t c in
    let y = Array.copy c in
    solve Sp.Basis.btran basis y;
    for i = 0 to m - 1 do
      if Float.abs (y.(i) -. y_ref.(i)) > 1e-7 then
        Alcotest.failf "trial %d (m=%d): btran row %d: %.12g vs %.12g" trial m
          i y.(i) y_ref.(i)
    done
  done

(* singular input: [factor] must patch the dependent positions with
   unit columns of unpivoted rows, and the resulting factorization must
   solve exactly the patched matrix *)
let test_singular_factor_patches () =
  let prng = Prng.of_string "sparse-singular-patch" in
  for trial = 1 to 25 do
    let m = 6 + Prng.int prng 30 in
    let cols = random_cols prng m in
    (* make 1-3 columns exact duplicates of other columns: rank drops *)
    let ndup = 1 + Prng.int prng 3 in
    let dups = ref [] in
    for _ = 1 to ndup do
      let src = Prng.int prng m and dst = Prng.int prng m in
      if src <> dst && not (List.mem_assoc dst !dups) then begin
        cols.(dst) <- cols.(src);
        dups := (dst, src) :: !dups
      end
    done;
    let basis = Sp.Basis.create m in
    let patched =
      factor_cols basis cols
    in
    if !dups <> [] then
      Alcotest.(check bool)
        (Printf.sprintf "trial %d: rank-deficient input is patched" trial)
        true
        (List.length patched >= 1);
    (* apply the patch contract: the factored matrix has the column at
       each patched position replaced by the unit column of its row *)
    let cols' = Array.copy cols in
    List.iter (fun (pos, row) -> cols'.(pos) <- [ (row, 1.) ]) patched;
    let dense = cols_to_dense m cols' in
    let b = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let x_ref = dense_solve dense b in
    let x = Array.copy b in
    solve Sp.Basis.ftran basis x;
    for i = 0 to m - 1 do
      if Float.abs (x.(i) -. x_ref.(i)) > 1e-6 then
        Alcotest.failf "trial %d (m=%d): patched ftran row %d: %.12g vs %.12g"
          trial m i x.(i) x_ref.(i)
    done
  done

(* eta update equivalence: B' = B with one replaced column, applied via
   [update], must solve like a fresh factorization of B' *)
let test_eta_vs_fresh_factor () =
  let prng = Prng.of_string "sparse-eta-vs-fresh" in
  for trial = 1 to 25 do
    let m = 5 + Prng.int prng 40 in
    let cols = random_cols prng m in
    let basis = Sp.Basis.create m in
    let patched =
      factor_cols basis cols
    in
    Alcotest.(check int) "no patch" 0 (List.length patched);
    (* replace column r by a fresh random column with w_r bounded away
       from zero, through the eta file *)
    let r = Prng.int prng m in
    let newcol = (r, 2. +. Prng.uniform prng 0. 2.) :: List.tl cols.(r) in
    let w = Array.make m 0. in
    List.iter (fun (i, v) -> w.(i) <- w.(i) +. v) newcol;
    let wpat = Array.make m 0 in
    let nnz = Sp.Basis.ftran basis w ~pat:wpat ~nnz:(Sp.nonzeros w m wpat) in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: eta pivot accepted" trial)
      true
      (Sp.Basis.update basis ~r ~w ~pat:wpat ~nnz);
    let cols' = Array.copy cols in
    cols'.(r) <- newcol;
    let fresh = Sp.Basis.create m in
    let patched' =
      factor_cols fresh cols'
    in
    Alcotest.(check int) "no patch after replacement" 0 (List.length patched');
    let b = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let x_eta = Array.copy b and x_fresh = Array.copy b in
    solve Sp.Basis.ftran basis x_eta;
    solve Sp.Basis.ftran fresh x_fresh;
    for i = 0 to m - 1 do
      if Float.abs (x_eta.(i) -. x_fresh.(i)) > 1e-7 then
        Alcotest.failf "trial %d (m=%d): eta ftran row %d: %.12g vs %.12g"
          trial m i x_eta.(i) x_fresh.(i)
    done;
    let c = Array.init m (fun _ -> Prng.uniform prng (-5.) 5.) in
    let y_eta = Array.copy c and y_fresh = Array.copy c in
    solve Sp.Basis.btran basis y_eta;
    solve Sp.Basis.btran fresh y_fresh;
    for i = 0 to m - 1 do
      if Float.abs (y_eta.(i) -. y_fresh.(i)) > 1e-7 then
        Alcotest.failf "trial %d (m=%d): eta btran row %d: %.12g vs %.12g"
          trial m i y_eta.(i) y_fresh.(i)
    done
  done

(* ---- hypersparse solves vs the full sweep ---- *)

(* The dense FTRAN and BTRAN loops over all m steps and every eta, on
   the factors' own arrays: the reference the hypersparse solves must
   reproduce bit for bit. *)
let ref_ftran (f : Sp.Basis.factors) v =
  let m = f.Sp.Basis.f_m in
  let open Sp.Basis in
  for a = 0 to f.f_n_active - 1 do
    let s = f.f_active.(a) in
    let x = v.(f.f_prow.(s)) in
    if not (Float.equal x 0.) then
      for c = f.f_l_start.(s) to f.f_l_start.(s + 1) - 1 do
        v.(f.f_l_idx.(c)) <- v.(f.f_l_idx.(c)) -. (f.f_l_val.(c) *. x)
      done
  done;
  let sv = Array.make m 0. in
  for k = 0 to m - 1 do
    sv.(k) <- v.(f.f_prow.(k))
  done;
  for k = m - 1 downto 0 do
    let z = sv.(k) /. f.f_u_diag.(k) in
    sv.(k) <- z;
    if not (Float.equal z 0.) then
      for c = f.f_u_start.(k) to f.f_u_start.(k + 1) - 1 do
        sv.(f.f_u_idx.(c)) <- sv.(f.f_u_idx.(c)) -. (f.f_u_val.(c) *. z)
      done
  done;
  for k = 0 to m - 1 do
    v.(f.f_qpos.(k)) <- sv.(k)
  done;
  for e = 0 to f.f_n_eta - 1 do
    let r = f.f_e_pos.(e) in
    let vr = v.(r) /. f.f_e_diag.(e) in
    v.(r) <- vr;
    if not (Float.equal vr 0.) then
      for c = f.f_e_start.(e) to f.f_e_start.(e + 1) - 1 do
        v.(f.f_e_idx.(c)) <- v.(f.f_e_idx.(c)) -. (f.f_e_val.(c) *. vr)
      done
  done

let ref_btran (f : Sp.Basis.factors) v =
  let m = f.Sp.Basis.f_m in
  let open Sp.Basis in
  for e = f.f_n_eta - 1 downto 0 do
    let r = f.f_e_pos.(e) in
    let s = ref v.(r) in
    for c = f.f_e_start.(e) to f.f_e_start.(e + 1) - 1 do
      s := !s -. (f.f_e_val.(c) *. v.(f.f_e_idx.(c)))
    done;
    v.(r) <- !s /. f.f_e_diag.(e)
  done;
  let sv = Array.make m 0. in
  for k = 0 to m - 1 do
    let s = ref v.(f.f_qpos.(k)) in
    for c = f.f_u_start.(k) to f.f_u_start.(k + 1) - 1 do
      s := !s -. (f.f_u_val.(c) *. sv.(f.f_u_idx.(c)))
    done;
    sv.(k) <- !s /. f.f_u_diag.(k)
  done;
  Array.fill v 0 m 0.;
  for k = m - 1 downto 0 do
    let s = ref sv.(k) in
    for c = f.f_l_start.(k) to f.f_l_start.(k + 1) - 1 do
      s := !s -. (f.f_l_val.(c) *. v.(f.f_l_idx.(c)))
    done;
    v.(f.f_prow.(k)) <- !s
  done

(* Every nonzero of [want] has [got]'s bits, every zero of [want] is a
   zero of [got] (of either sign), and the returned pattern is exactly
   [want]'s nonzeros, ascending. *)
let check_solve name want got pat nnz =
  let m = Array.length want in
  let nz x = not (Float.equal x 0.) in
  let expected = List.filter (fun i -> nz want.(i)) (List.init m Fun.id) in
  let returned = Array.to_list (Array.sub pat 0 nnz) in
  if returned <> expected then
    Alcotest.failf "%s: pattern [%s], want [%s]" name
      (String.concat ";" (List.map string_of_int returned))
      (String.concat ";" (List.map string_of_int expected));
  Array.iteri
    (fun i x ->
      if nz x then begin
        if Int64.bits_of_float x <> Int64.bits_of_float got.(i) then
          Alcotest.failf "%s: entry %d is %h, want %h" name i got.(i) x
      end
      else if nz got.(i) then
        Alcotest.failf "%s: entry %d is %h, want 0" name i got.(i))
    want

(* Seeded random bases, among them m = 0 and m = 1, bases with an
   empty structural column (patched by [factor]) and bases with unit
   (slack) columns, each taken through eta updates up to its eta
   limit.  Some updates enter a multiple of the column they replace,
   so that etas with few or no off-pivot entries occur.  After the
   factorization and after every update, FTRAN and BTRAN of unit,
   sparse (shuffled, with a duplicate) and dense right-hand sides, and
   [btran_unit] from the previous row, must equal the full sweep; so
   must the FTRAN of each entering column, whose pattern then goes to
   [update] as is.  The solves run back to back, so the density rule
   sends some through the full sweep and some through the hypersparse
   path. *)
let test_kernel_oracle () =
  let prng = Prng.of_string "sparse-kernel-oracle" in
  let sizes =
    [ 0; 1; 1; 2; 3 ] @ List.init 40 (fun _ -> 4 + Prng.int prng 90)
  in
  let at_limit = ref 0 in
  List.iteri
    (fun trial m ->
      let name what = Printf.sprintf "trial %d (m=%d): %s" trial m what in
      let cols = random_cols prng m in
      Array.iteri
        (fun j _ -> if Prng.bool prng 0.2 then cols.(j) <- [ (j, 1.) ])
        cols;
      if m > 0 && Prng.bool prng 0.3 then cols.(Prng.int prng m) <- [];
      let eta_limit = 1 + Prng.int prng 12 in
      let basis = Sp.Basis.create ~eta_limit m in
      ignore (factor_cols basis cols);
      (* a right-hand side with [k] random entries, and its pattern in
         random order with one duplicate *)
      let rhs k =
        let v = Array.make m 0. in
        let idx = List.init k (fun _ -> Prng.int prng m) in
        List.iter (fun i -> v.(i) <- Prng.uniform prng (-3.) 3.) idx;
        let idx = match idx with i :: _ -> i :: idx | [] -> [] in
        let pat = Array.make (max m (List.length idx)) 0 in
        List.iteri (fun p i -> pat.(p) <- i) idx;
        (v, pat, List.length idx)
      in
      let check_kernel what kernel reference (v, pat, nnz) =
        let want = Array.copy v in
        reference (Sp.Basis.factors basis) want;
        let got = kernel basis v ~pat ~nnz in
        check_solve (name what) want v pat got
      in
      let rho = Array.make m 0. and rpat = Array.make m 0 and rnnz = ref 0 in
      let check_all () =
        if m > 0 then begin
          List.iter
            (fun (what, k) ->
              check_kernel ("ftran " ^ what) Sp.Basis.ftran ref_ftran (rhs k);
              check_kernel ("btran " ^ what) Sp.Basis.btran ref_btran (rhs k))
            [ ("unit", 1); ("sparse", 1 + Prng.int prng 4); ("dense", 2 * m) ];
          let r = Prng.int prng m in
          let want = Array.make m 0. in
          want.(r) <- 1.;
          ref_btran (Sp.Basis.factors basis) want;
          rnnz := Sp.Basis.btran_unit basis r rho ~pat:rpat ~nnz:!rnnz;
          check_solve (name "btran_unit") want rho rpat !rnnz
        end
        else begin
          let v = [||] and pat = [||] in
          Alcotest.(check int) (name "ftran") 0
            (Sp.Basis.ftran basis v ~pat ~nnz:0);
          Alcotest.(check int) (name "btran") 0
            (Sp.Basis.btran basis v ~pat ~nnz:0)
        end
      in
      check_all ();
      let tries = ref 0 in
      while
        m > 0 && (not (Sp.Basis.needs_refactor basis)) && !tries < 3 * eta_limit
      do
        incr tries;
        let r = Prng.int prng m in
        let col =
          if Prng.bool prng 0.3 then
            List.map (fun (i, x) -> (i, 2. *. x)) cols.(r)
          else
            (r, 2. +. Prng.uniform prng 0. 2.)
            :: List.tl (random_cols prng m).(r)
        in
        let w = Array.make m 0. in
        let wpat = Array.make (m + List.length col) 0 in
        List.iteri
          (fun p (i, x) ->
            w.(i) <- w.(i) +. x;
            wpat.(p) <- i)
          col;
        let want = Array.copy w in
        ref_ftran (Sp.Basis.factors basis) want;
        let nnz = Sp.Basis.ftran basis w ~pat:wpat ~nnz:(List.length col) in
        check_solve (name "entering column") want w wpat nnz;
        if Sp.Basis.update basis ~r ~w ~pat:wpat ~nnz then begin
          cols.(r) <- col;
          check_all ()
        end
      done;
      if Sp.Basis.eta_count basis = eta_limit then incr at_limit)
    sizes;
  if !at_limit < 20 then
    Alcotest.failf "%d eta files reached their limit, want >= 20" !at_limit

(* ---- LP duality certificates ---- *)

let sparse_status = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iter-limit"

(* 1 for a certified Optimal solve, 0 for any other status; fails the
   test on an Optimal solve without a certificate *)
let certify name m (sol : Simplex.solution) =
  if sol.Simplex.status <> Simplex.Optimal then 0
  else begin
    let c = Certificate.check m sol in
    if not (Certificate.certified c) then
      Alcotest.failf "%s: not certified (primal %.3g, dual %.3g, gap %.3g)"
        name c.Certificate.primal_violation c.Certificate.dual_violation
        c.Certificate.gap;
    1
  end

let at_least name want got =
  Printf.printf "%s: %d certified optimal solves\n" name got;
  if got < want then
    Alcotest.failf "%s: %d certified optimal solves, want >= %d" name got want

let at_least_iters name want (sol : Simplex.solution) =
  if sol.Simplex.iterations < want then
    Alcotest.failf "%s: %d iterations, want >= %d" name sol.Simplex.iterations
      want

let random_lp prng ~nv ~nr =
  let m = Lp_model.create () in
  let vars =
    Array.init nv (fun _ ->
        Lp_model.add_var m ~ub:4. ~obj:(Prng.uniform prng (-2.) 2.) ())
  in
  for _ = 1 to nr do
    (* sparse rows: ~40% fill *)
    let coeffs =
      List.filter_map
        (fun v ->
          if Prng.bool prng 0.4 then
            Some (v, float_of_int (Prng.int prng 7 - 3))
          else None)
        (Array.to_list vars)
    in
    if coeffs <> [] then begin
      let sense =
        match Prng.int prng 3 with
        | 0 -> Lp_model.Ge
        | 1 -> Lp_model.Eq
        | _ -> Lp_model.Le
      in
      ignore (Lp_model.add_row m sense (Prng.uniform prng (-2.) 6.) coeffs)
    end
  done;
  m

let random_model trial =
  let prng = Prng.of_string (Printf.sprintf "sparse-diff-%d" trial) in
  let nv = 2 + Prng.int prng 14 and nr = 1 + Prng.int prng 12 in
  (prng, random_lp prng ~nv ~nr)

let test_random_certificates () =
  let n = ref 0 in
  for trial = 1 to 1000 do
    let _, m = random_model trial in
    n := !n + certify (Printf.sprintf "random %d" trial) m (Simplex.solve m)
  done;
  at_least "random LPs" 350 !n

(* Variables with every bound shape (boxed, one-sided either way, free,
   fixed); rows box some of the unbounded ones so most LPs are
   bounded, and their duals then carry what bounds would. *)
let mixed_lp prng =
  let m = Lp_model.create () in
  let nv = 2 + Prng.int prng 10 in
  let vars =
    Array.init nv (fun _ ->
        let lb, ub =
          match Prng.int prng 5 with
          | 0 -> (0., 4.)
          | 1 -> (neg_infinity, 3.)
          | 2 -> (-2., infinity)
          | 3 -> (neg_infinity, infinity)
          | _ -> (1., 1.)
        in
        let v =
          Lp_model.add_var m ~lb ~ub ~obj:(Prng.uniform prng (-2.) 2.) ()
        in
        if not (Float.is_finite lb) then
          ignore (Lp_model.add_row m Lp_model.Ge (-5.) [ (v, 1.) ]);
        if not (Float.is_finite ub) && Prng.bool prng 0.8 then
          ignore (Lp_model.add_row m Lp_model.Le 5. [ (v, 1.) ]);
        v)
  in
  for _ = 1 to 1 + Prng.int prng 8 do
    let coeffs =
      List.filter_map
        (fun v ->
          if Prng.bool prng 0.5 then Some (v, Prng.uniform prng (-3.) 3.)
          else None)
        (Array.to_list vars)
    in
    if coeffs <> [] then
      let sense =
        match Prng.int prng 3 with
        | 0 -> Lp_model.Ge
        | 1 -> Lp_model.Eq
        | _ -> Lp_model.Le
      in
      ignore (Lp_model.add_row m sense (Prng.uniform prng (-3.) 6.) coeffs)
  done;
  m

let test_mixed_bound_certificates () =
  let n = ref 0 in
  for trial = 1 to 800 do
    let m = mixed_lp (Prng.of_string (Printf.sprintf "cert-mixed-%d" trial)) in
    n := !n + certify (Printf.sprintf "mixed %d" trial) m (Simplex.solve m)
  done;
  at_least "free and one-sided" 400 !n

(* Cutting-plane rounds: each cut is a random row through a point just
   inside the current optimum's activity, appended with [extend]. *)
let test_extend_certificates () =
  let n = ref 0 in
  for trial = 1 to 200 do
    let prng, m = random_model (1000 + trial) in
    let st = ref (Simplex.make m) in
    let sol = ref (Simplex.solve_warm !st) in
    n := !n + certify (Printf.sprintf "extend %d/0" trial) m !sol;
    for round = 1 to 5 do
      if !sol.Simplex.status = Simplex.Optimal then begin
        let coeffs =
          List.init (Lp_model.nvars m) (fun j ->
              (j, float_of_int (Prng.int prng 5 - 2)))
          |> List.filter (fun (_, a) -> a <> 0.)
        in
        if coeffs <> [] then begin
          let act =
            List.fold_left
              (fun acc (j, a) -> acc +. (a *. !sol.Simplex.x.(j)))
              0. coeffs
          in
          ignore
            (Lp_model.add_row m Lp_model.Le
               (act -. Prng.uniform prng 0. 1.)
               coeffs);
          st := Simplex.extend !st m;
          sol := Simplex.solve_warm !st;
          n :=
            !n + certify (Printf.sprintf "extend %d/%d" trial round) m !sol
        end
      end
    done
  done;
  at_least "extend" 340 !n

(* Each step moves a few bounds and RHS of the state, and the
   certificate is checked against a model built afresh with the data
   as it stands. *)
let test_warm_walk_certificates () =
  let n = ref 0 in
  for trial = 1 to 200 do
    let prng, m = random_model (2000 + trial) in
    let st = Simplex.make m and w = Lp_walk.of_model m in
    n :=
      !n + certify (Printf.sprintf "walk %d/0" trial) m (Simplex.solve_warm st);
    for step = 1 to 10 do
      for _ = 1 to 2 do
        let j = Prng.int prng (Lp_model.nvars m) in
        let lb = Prng.uniform prng (-1.) 1. in
        Lp_walk.set_bounds w st j ~lb ~ub:(lb +. Prng.uniform prng 0. 4.)
      done;
      if Lp_model.nrows m > 0 then begin
        let i = Prng.int prng (Lp_model.nrows m) in
        Lp_walk.set_rhs w st i (w.Lp_walk.rhs.(i) +. Prng.uniform prng (-1.) 1.)
      end;
      n :=
        !n
        + certify
            (Printf.sprintf "walk %d/%d" trial step)
            (Lp_walk.model w) (Simplex.solve_warm st)
    done
  done;
  at_least "solve_warm walks" 450 !n

(* A walk that moves only the RHS, the case the dual-simplex restart
   is built for; the check also holds [dual_bound] at that RHS to the
   dual objective. *)
let test_rhs_walk_certificates () =
  let n = ref 0 in
  for trial = 1 to 200 do
    let prng, m = random_model (3000 + trial) in
    let st = Simplex.make m and w = Lp_walk.of_model m in
    n :=
      !n + certify (Printf.sprintf "rhs %d/0" trial) m (Simplex.solve_warm st);
    for step = 1 to 10 do
      let rhs =
        Array.init (Lp_model.nrows m) (fun i ->
            w.Lp_walk.rhs.(i) +. Prng.uniform prng (-1.) 1.)
      in
      Array.iteri (Lp_walk.set_rhs w st) rhs;
      n :=
        !n
        + certify (Printf.sprintf "rhs %d/%d" trial step) (Lp_walk.model w)
            (Simplex.solve_warm st)
    done
  done;
  at_least "rhs walks" 700 !n

let test_fixture_certificates () =
  List.iter
    (fun name ->
      let m = Option.get (Doctor.fixture name) in
      let sol = Simplex.solve m in
      Alcotest.(check string)
        (name ^ " status") "optimal"
        (sparse_status sol.Simplex.status);
      ignore (certify name m sol);
      let sol, _ = Simplex.solve_doctor m in
      ignore (certify (name ^ " (doctor)") m sol))
    [ "near-singular"; "degenerate" ]

(* ---- min-MLU over catalog topologies ---- *)

let mlu_model name npairs =
  let g = Flexile_net.Catalog.by_name name in
  let seed = Prng.of_string ("sparse-diff-" ^ name) in
  let pairs = Graph.pairs g in
  Prng.shuffle seed pairs;
  let pairs = Array.sub pairs 0 (min npairs (Array.length pairs)) in
  Array.sort compare pairs;
  let demands = Flexile_traffic.Gravity.matrix ~seed ~graph:g ~pairs in
  let model = Lp_model.create ~name:("mlu-" ^ name) () in
  let mu = Lp_model.add_var model ~obj:1. () in
  let per_edge = Array.make (Graph.nedges g) [] in
  Array.iteri
    (fun i pair ->
      if demands.(i) > 0. then begin
        let ts = Array.of_list (Tunnels.select_single_class g ~pair ~count:3) in
        let vars =
          Array.map
            (fun (t : Tunnels.t) ->
              let v = Lp_model.add_var model () in
              Array.iter
                (fun e -> per_edge.(e) <- (v, 1.) :: per_edge.(e))
                t.Tunnels.path;
              v)
            ts
        in
        ignore
          (Lp_model.add_row model Lp_model.Eq demands.(i)
             (Array.to_list (Array.map (fun v -> (v, 1.)) vars)))
      end)
    pairs;
  Array.iteri
    (fun e coeffs ->
      if coeffs <> [] then
        let cap = g.Graph.edges.(e).Graph.capacity in
        ignore (Lp_model.add_row model Lp_model.Le 0. ((mu, -.cap) :: coeffs)))
    per_edge;
  model

let test_topology_certificates () =
  List.iter
    (fun (name, npairs) ->
      let m = mlu_model name npairs in
      let sol = Simplex.solve m in
      Alcotest.(check string)
        (name ^ " status") "optimal"
        (sparse_status sol.Simplex.status);
      ignore (certify ("mlu " ^ name) m sol))
    [
      ("Sprint", 30); ("IBM", 40); ("GEANT", 40); ("Tinet", 60);
      (* 1100 nodes: the only LP at continental scale in the suite *)
      ("continental", 200);
    ]

(* ---- models of known status ---- *)

let test_known_status () =
  let expect name want (sol : Simplex.solution) =
    Alcotest.(check string) name want (sparse_status sol.Simplex.status)
  in
  (* x >= 2 and x <= 1 *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:1. () in
  ignore (Lp_model.add_row m Lp_model.Ge 2. [ (x, 1.) ]);
  ignore (Lp_model.add_row m Lp_model.Le 1. [ (x, 1.) ]);
  expect "contradictory rows" "infeasible" (Simplex.solve m);
  (* x + y = 3 and x + y = 4 over free variables *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~lb:neg_infinity () in
  let y = Lp_model.add_var m ~lb:neg_infinity () in
  ignore (Lp_model.add_row m Lp_model.Eq 3. [ (x, 1.); (y, 1.) ]);
  ignore (Lp_model.add_row m Lp_model.Eq 4. [ (x, 1.); (y, 1.) ]);
  expect "inconsistent equalities" "infeasible" (Simplex.solve m);
  (* a feasible box, then a warm RHS move that empties it, then a cut *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-1.) ~ub:10. () in
  let y = Lp_model.add_var m ~obj:(-1.) ~ub:10. () in
  ignore (Lp_model.add_row m Lp_model.Le 4. [ (x, 1.); (y, 1.) ]);
  ignore (Lp_model.add_row m Lp_model.Ge 1. [ (x, 1.); (y, -1.) ]);
  let st = Simplex.make m in
  expect "box" "optimal" (Simplex.solve_warm st);
  Simplex.set_rhs st 0 (-1.);
  expect "warm rhs into infeasibility" "infeasible" (Simplex.solve_warm st);
  Simplex.set_rhs st 0 4.;
  expect "warm rhs back" "optimal" (Simplex.solve_warm st);
  ignore (Lp_model.add_row m Lp_model.Ge 5. [ (x, 1.) ]);
  expect "extend with a cut past the box" "infeasible"
    (Simplex.solve_warm (Simplex.extend st m));
  (* min -x - y  s.t.  x - y <= 1 over the nonnegative quadrant *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:(-1.) () in
  let y = Lp_model.add_var m ~obj:(-1.) () in
  ignore (Lp_model.add_row m Lp_model.Le 1. [ (x, 1.); (y, -1.) ]);
  expect "open ray" "unbounded" (Simplex.solve m);
  (* min z over a free z that only appears in a loose row *)
  let m = Lp_model.create () in
  let z = Lp_model.add_var m ~lb:neg_infinity ~obj:1. () in
  let w = Lp_model.add_var m ~ub:1. () in
  ignore (Lp_model.add_row m Lp_model.Le 3. [ (z, 1.); (w, 1.) ]);
  expect "free variable" "unbounded" (Simplex.solve m);
  (* a bounded LP made unbounded by a warm cost change *)
  let m = Lp_model.create () in
  let x = Lp_model.add_var m ~obj:1. () in
  let y = Lp_model.add_var m ~obj:1. () in
  ignore (Lp_model.add_row m Lp_model.Ge 1. [ (x, 1.); (y, 1.) ]);
  let st = Simplex.make m in
  expect "bounded" "optimal" (Simplex.solve_warm st);
  Simplex.set_obj st x (-1.);
  expect "warm cost change" "unbounded" (Simplex.solve_warm st)

(* ---- mutations: the certificate rejects broken answers ---- *)

let rejects (sol : Simplex.solution) m =
  not (Certificate.certified (Certificate.check m sol))

let test_mutations_rejected () =
  let tried = ref 0 in
  let fail trial what = Alcotest.failf "random %d: %s accepted" trial what in
  for trial = 1 to 400 do
    let _, m = random_model trial in
    let sol = Simplex.solve m in
    let y = sol.Simplex.row_duals in
    let bigger a b = if Float.abs y.(b) > Float.abs y.(a) then b else a in
    let nr = Lp_model.nrows m in
    if sol.Simplex.status = Simplex.Optimal && nr > 0 then begin
      let i = List.fold_left bigger 0 (List.init nr Fun.id) in
      if Float.abs y.(i) > 1e-6 then begin
        incr tried;
        let flipped = Array.copy y in
        flipped.(i) <- -.y.(i);
        if rejects { sol with Simplex.row_duals = flipped } m then ()
        else fail trial "flipped dual sign";
        (* push x past row i's bound by 1e-3 along one of its columns *)
        let j, a = List.hd (Lp_model.row_coeffs m i) in
        let act =
          List.fold_left
            (fun acc (j, a) -> acc +. (a *. sol.Simplex.x.(j)))
            0. (Lp_model.row_coeffs m i)
        in
        let target =
          match Lp_model.row_sense m i with
          | Lp_model.Ge -> Lp_model.rhs m i -. 1e-3
          | Lp_model.Le | Lp_model.Eq -> Lp_model.rhs m i +. 1e-3
        in
        let x = Array.copy sol.Simplex.x in
        x.(j) <- x.(j) +. ((target -. act) /. a);
        if not (rejects { sol with Simplex.x } m) then
          fail trial "x outside a row";
        let eps = 1e-6 *. (1. +. Float.abs sol.Simplex.obj) in
        if not (rejects { sol with Simplex.obj = sol.Simplex.obj +. eps } m)
        then fail trial "perturbed obj";
        if
          not
            (rejects
               { sol with Simplex.bound_term = sol.Simplex.bound_term +. eps }
               m)
        then fail trial "perturbed bound_term"
      end
    end
  done;
  if !tried < 100 then
    Alcotest.failf "only %d solutions with a nonzero dual to mutate" !tried

(* Hand-built answers that each break exactly one condition, one the
   other measures cannot see: a wrong-sign row dual on a tight row, a
   positive reduced cost on a free variable, a feasible but suboptimal
   x with consistent duals, and a misreported reduced cost. *)
let test_single_condition_rejected () =
  let answer ~obj ~x ~y ~d ~bound_term =
    {
      Simplex.status = Simplex.Optimal;
      obj;
      x = [| x |];
      row_duals = [| y |];
      reduced_costs = [| d |];
      bound_term;
      iterations = 0;
    }
  in
  let one_var ~lb ~ub ~cost sense rhs =
    let m = Lp_model.create () in
    let v = Lp_model.add_var m ~lb ~ub ~obj:cost () in
    ignore (Lp_model.add_row m sense rhs [ (v, 1.) ]);
    m
  in
  let case name m good bad =
    if not (Certificate.certified (Certificate.check m good)) then
      Alcotest.failf "%s: the right answer is not certified" name;
    if Certificate.certified (Certificate.check m bad) then
      Alcotest.failf "%s: accepted" name
  in
  (* min 0 s.t. x <= 1, x fixed at 1: y must be <= 0 *)
  case "wrong-sign row dual"
    (one_var ~lb:1. ~ub:1. ~cost:0. Lp_model.Le 1.)
    (answer ~obj:0. ~x:1. ~y:0. ~d:0. ~bound_term:0.)
    (answer ~obj:0. ~x:1. ~y:5. ~d:(-5.) ~bound_term:(-5.));
  (* min x s.t. x >= 1, x free: d > 0 needs a finite lower bound *)
  case "reduced cost on a free variable"
    (one_var ~lb:neg_infinity ~ub:infinity ~cost:1. Lp_model.Ge 1.)
    (answer ~obj:1. ~x:1. ~y:1. ~d:0. ~bound_term:0.)
    (answer ~obj:1. ~x:1. ~y:0. ~d:1. ~bound_term:1.);
  (* min x s.t. x <= 3, x in [0, 4]: x = 3 is feasible, not optimal,
     even with a bound_term that agrees with it *)
  let m = one_var ~lb:0. ~ub:4. ~cost:1. Lp_model.Le 3. in
  let right = answer ~obj:0. ~x:0. ~y:0. ~d:1. ~bound_term:0. in
  case "suboptimal x" m right
    (answer ~obj:3. ~x:3. ~y:0. ~d:1. ~bound_term:3.);
  (* the same optimum reporting a reduced cost other than c - A^T y *)
  case "reported reduced cost" m right
    (answer ~obj:0. ~x:0. ~y:0. ~d:2. ~bound_term:0.)

(* ---- eta updates vs refactorize-every-pivot, through the solver ----

   The same warm RHS walk, once with the default eta limit and once
   with an eta limit of 1 (every pivot triggers a fresh LU).  Both
   runs must report identical statuses and objectives to 1e-9: the
   product-form updates may not change results, only speed. *)

let walk_objs ?eta_limit m nsteps =
  let st = Simplex.make ?eta_limit m in
  let prng = Prng.of_string "sparse-eta-walk" in
  let first = Simplex.solve_warm st in
  let objs = ref [ (sparse_status first.Simplex.status, first.Simplex.obj) ] in
  for _ = 1 to nsteps do
    let rhs =
      Array.init (Lp_model.nrows m) (fun _ -> Prng.uniform prng (-2.) 8.)
    in
    Array.iteri (Simplex.set_rhs st) rhs;
    let sol = Simplex.solve_warm st in
    objs := (sparse_status sol.Simplex.status, sol.Simplex.obj) :: !objs
  done;
  List.rev !objs

let test_eta_vs_refactor_walk () =
  let model () =
    let prng = Prng.of_string "sparse-eta-model" in
    random_lp prng ~nv:12 ~nr:10
  in
  let with_eta = walk_objs (model ()) 8 in
  let without_eta = walk_objs ~eta_limit:1 (model ()) 8 in
  List.iteri
    (fun i ((s1, o1), (s2, o2)) ->
      Alcotest.(check string) (Printf.sprintf "step %d status" i) s2 s1;
      if s1 = "optimal" && Float.abs (o1 -. o2) > 1e-9 *. (1. +. Float.abs o2)
      then
        Alcotest.failf "step %d: obj %.12g (eta) vs %.12g (refactor)" i o1 o2)
    (List.combine with_eta without_eta)

(* ---- the pivot loops allocate nothing per column, row or nonzero ---- *)

(* A packing LP over [0,1] columns: cold, it takes >1,000 primal pivots
   with bound flips and eta updates; fixing fractional columns at 0
   then forces a dual-simplex restart.  Minor-heap words per reported
   iteration, solver-state allocation included, stay far below the
   ~18,300 a closure- and boxing-based pivot loop spends on it. *)
let test_pivot_loop_allocation () =
  let prng = Prng.of_string "pivot-loop-allocation" in
  let m = Lp_model.create () in
  let vars =
    Array.init 800 (fun _ ->
        Lp_model.add_var m ~ub:1. ~obj:(-.Prng.uniform prng 0.5 2.) ())
  in
  for _ = 1 to 200 do
    let coeffs =
      List.filter_map
        (fun v ->
          if Prng.bool prng 0.05 then Some (v, Prng.uniform prng 0.5 2.)
          else None)
        (Array.to_list vars)
    in
    ignore (Lp_model.add_row m Lp_model.Le (Prng.uniform prng 2. 6.) coeffs)
  done;
  let st = Simplex.make m and walk = Lp_walk.of_model m in
  let w0 = Gc.minor_words () in
  let cold = Simplex.solve_warm st in
  let w1 = Gc.minor_words () in
  ignore (certify "cold" m cold);
  at_least_iters "cold solve" 1000 cold;
  let fixed = ref 0 in
  Array.iter
    (fun v ->
      let x = cold.Simplex.x.(v) in
      if !fixed < 20 && x > 0.1 && x < 0.9 then begin
        incr fixed;
        Lp_walk.set_bounds walk st v ~lb:0. ~ub:0.
      end)
    vars;
  let w2 = Gc.minor_words () in
  let warm = Simplex.solve_warm st in
  let w3 = Gc.minor_words () in
  Alcotest.(check int) "restart is optimal" 1 (certify "warm" (Lp_walk.model walk) warm);
  at_least_iters "dual restart" 100 warm;
  let per_iter =
    (w1 -. w0 +. (w3 -. w2))
    /. float_of_int (cold.Simplex.iterations + warm.Simplex.iterations)
  in
  Printf.printf "minor words per iteration: %.1f\n" per_iter;
  if per_iter > 100. then
    Alcotest.failf "%.1f minor words per iteration, want <= 100" per_iter

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flexile_sparse"
    [
      ("svec", [ quick "accumulator semantics" test_svec ]);
      ( "kernel",
        [
          quick "factor/ftran/btran vs dense elimination" test_kernel_vs_dense;
          quick "singular factor patches dependent columns"
            test_singular_factor_patches;
          quick "eta update vs fresh factorization" test_eta_vs_fresh_factor;
          quick "hypersparse solves vs full sweep" test_kernel_oracle;
        ] );
      ( "certificates",
        [
          quick "random LPs" test_random_certificates;
          quick "catalog min-MLU" test_topology_certificates;
          quick "free and one-sided variables" test_mixed_bound_certificates;
          quick "extend with cut rows" test_extend_certificates;
          quick "solve_warm bound+RHS walks" test_warm_walk_certificates;
          quick "rhs walks" test_rhs_walk_certificates;
          quick "doctor fixtures" test_fixture_certificates;
          quick "known statuses" test_known_status;
          quick "mutations rejected" test_mutations_rejected;
          quick "single broken condition rejected"
            test_single_condition_rejected;
        ] );
      ( "eta-file",
        [ quick "warm walk: eta = refactor-every-pivot" test_eta_vs_refactor_walk ]
      );
      ( "allocation",
        [ quick "pivot loops: minor words per iteration" test_pivot_loop_allocation ]
      );
    ]
