(* Numerical health observatory for the sparse revised simplex
   (DESIGN.md section 15).

   The solver samples this module once per refactorization and once at
   solution extraction — never per pivot, so the noalloc pivot kernels
   ([Sparse.Basis.ftran]/[btran]/[update], [Simplex.scatter_alpha])
   stay untouched.  A sample costs a handful of FTRAN/BTRAN solves plus
   O(nnz) column scans, which is a vanishing fraction of the
   factorization it rides on.

   What is measured per sample:
   - relative primal residual  max_i |(B x_B - b~)_i| / max(1, ||b~||_inf)
   - relative dual residual    max_j |(B^T y - c_B)_j| / max(1, ||c_B||_inf)
   - a Hager-style 1-norm condition estimate kappa_1(B) ~ ||B||_1 ||B^-1||_1,
     where ||B^-1||_1 comes from at most three FTRAN/BTRAN power steps
     on the gradient of x |-> ||B^-1 x||_1 (Hager 1984; the LAPACK
     xLACON estimator).  The estimate is a lower bound, exact on the
     fixtures we assert against, and never costs a dense inverse.
   - LU element growth, tiny-pivot rows, and the eta-file epoch stats
     ([Sparse.Basis] accessors) of the factorization just replaced.

   Degeneracy stalls (consecutive zero-step ratio tests) and Bland
   dwell are reported by the simplex loops through [note_stall] /
   [note_loop_end]; they cost one integer compare per iteration there.

   Everything flows into [Trace] counters/histograms under the
   [health.] prefix, and — when a state is created with [capture] — into
   an in-memory timeline that [Doctor] renders.  When a threshold trips
   the owner's [on_trip] hook runs, which the solver uses to dump a
   reproducible LP snapshot ([write_dump] / [read_dump], gated on the
   FLEXILE_HEALTH_DUMP directory). *)

module Trace = Flexile_util.Trace
module Float_cmp = Flexile_util.Float_cmp
module Json = Flexile_util.Json

(* ------------------------------------------------------------------ *)
(* Thresholds                                                          *)
(* ------------------------------------------------------------------ *)

(* Rationale (DESIGN.md section 15): cond_limit 1e10 leaves ~6 digits
   of the double mantissa trustworthy; residual_limit 1e-6 sits two
   decades above the solver's 1e-7 feasibility tolerance so a trip
   means the *factorization* is lying, not the ratio test; growth_limit
   1e8 is far beyond what threshold-0.01 partial pivoting produces on
   healthy bases; the stall limit's default 120 matches the simplex
   Bland fallback threshold so a "stall" is exactly the event that
   forced the anti-cycling pivot rule. *)
let cond_limit = 1e10
let residual_limit = 1e-6
let growth_limit = 1e8
let near_singular_rtol = 1e-7

(* ------------------------------------------------------------------ *)
(* Trace metrics (registered once at module initialization)            *)
(* ------------------------------------------------------------------ *)

let c_samples = Trace.counter "health.samples"
let c_trips = Trace.counter "health.threshold_trips"
let c_stalls = Trace.counter "health.stalls"
let c_bland = Trace.counter "health.bland_pivots"
let c_near_singular = Trace.counter "health.near_singular_rows"
let c_eta_rejections = Trace.counter "health.eta_rejections"
let c_dumps = Trace.counter "health.dumps"
let c_dual_guard = Trace.counter "health.dual_guard_trips"
let h_primal_res = Trace.hist "health.primal_residual"
let h_dual_res = Trace.hist "health.dual_residual"
let h_cond = Trace.hist "health.cond1_log10"
let h_growth = Trace.hist "health.lu_growth"
let h_eta_growth = Trace.hist "health.eta_growth"
let h_degen = Trace.hist "health.degen_run"

let note_dual_guard_trip () = Trace.incr c_dual_guard

(* ------------------------------------------------------------------ *)
(* Samples and state                                                   *)
(* ------------------------------------------------------------------ *)

type kind = Refactor | Final

(* Eta-file statistics of the epoch a refactorization just closed,
   read by the solver *before* [Sparse.Basis.factor] resets them. *)
type eta_epoch = {
  ee_len : int;
  ee_nnz : int;
  ee_rejections : int;
  ee_growth : float;
  ee_min_diag : float;
}

let empty_epoch =
  { ee_len = 0; ee_nnz = 0; ee_rejections = 0; ee_growth = 0.; ee_min_diag = infinity }

type sample = {
  s_kind : kind;
  s_phase : int;
  s_iteration : int;
  s_primal_res : float;
  s_dual_res : float;
  s_cond1 : float;
  s_growth : float;
  s_udiag_min : float;
  s_udiag_max : float;
  s_eta : eta_epoch;
  s_near_singular : (int * float) list;
  s_patched : (int * int) list;
  s_tripped : string list;
}

type stall = { st_phase : int; st_iteration : int; st_run : int }

type loop_note = {
  ln_phase : int;
  ln_iterations : int;
  ln_max_run : int;
  ln_bland : int;
}

type state = {
  m : int;
  stall_limit : int;
  mutable capture : bool;
  (* estimator scratch, length m, allocated by the first sample: the
     stride leaves most solver states unsampled *)
  mutable hy : float array;
  mutable hz : float array;
  mutable samples : sample list; (* newest first *)
  mutable stalls : stall list;
  mutable loops : loop_note list;
  mutable on_trip : string list -> unit;
}

let make ?(stall_limit = 120) m =
  {
    m;
    stall_limit;
    capture = false;
    hy = [||];
    hz = [||];
    samples = [];
    stalls = [];
    loops = [];
    on_trip = (fun _ -> ());
  }

let stall_limit state = state.stall_limit
let set_capture state b = state.capture <- b
let capture state = state.capture
let set_on_trip state f = state.on_trip <- f
let samples state = List.rev state.samples
let stalls state = List.rev state.stalls
let loop_notes state = List.rev state.loops

let clear state =
  state.samples <- [];
  state.stalls <- [];
  state.loops <- []

(* ------------------------------------------------------------------ *)
(* Production sampling stride                                          *)
(* ------------------------------------------------------------------ *)

(* A full numerical sample costs a dozen basis solves (the residual
   pair plus two-start Hager); taken at every cold extraction and
   every refactorization it blows the <=2% overhead budget on
   solve-heavy workloads (hundreds of small scenario LPs, or one
   continental-scale LP whose extraction-time eta file is long).  In
   production (non-capture) mode only every [sample_stride]-th
   opportunity is measured.  The counter is per-domain, so which
   solves get measured depends on how the scheduler spread work
   across domains — production health aggregates are statistical,
   and Trace_export leaves the health.* families out of its
   deterministic subset accordingly.  The deterministic
   health story is capture (doctor) mode, which bypasses the stride
   and samples everything. *)
let sample_stride = 16

(* per-domain counter with no cross-domain communication: DLS is the
   sanctioned per-worker-state pattern (lint i2 exempts it) *)
let stride_key = Domain.DLS.new_key (fun () -> ref 0)

let sample_due state =
  state.capture
  ||
  let c = Domain.DLS.get stride_key in
  let n = !c in
  c := n + 1;
  n mod sample_stride = 0

(* ------------------------------------------------------------------ *)
(* Estimators                                                          *)
(* ------------------------------------------------------------------ *)

(* A dense solve: the pattern of [v] is found by a scan. *)
let solve kernel state ~basis ~pat v =
  ignore (kernel basis v ~pat ~nnz:(Sparse.nonzeros v state.m pat))

(* max_i |(B x_B - b~)_i| / max(1, ||b~||_inf).  [col pos f] enumerates
   the basis column at [pos]; [btilde] is the row-space right-hand side
   b - N x_N the solver already maintains. *)
let primal_residual state ~col ~btilde ~xb =
  let m = state.m in
  let r = state.hy in
  let bnorm = ref 1. in
  for i = 0 to m - 1 do
    r.(i) <- -.btilde.(i);
    let a = Float.abs btilde.(i) in
    if a > !bnorm then bnorm := a
  done;
  for pos = 0 to m - 1 do
    let x = xb.(pos) in
    if Float_cmp.nonzero x then
      col pos (fun row v -> r.(row) <- r.(row) +. (v *. x))
  done;
  let worst = ref 0. in
  for i = 0 to m - 1 do
    let a = Float.abs r.(i) in
    if a > !worst then worst := a
  done;
  !worst /. !bnorm

(* max_j |(B^T y - c_B)_j| / max(1, ||c_B||_inf) with y = B^-T c_B —
   how far the duals the pricing loop trusts drift from the basic
   costs under the current factorization. *)
let dual_residual state ~basis ~pat ~col ~cb =
  let m = state.m in
  let y = state.hy in
  let cmax = ref 1. in
  for pos = 0 to m - 1 do
    let c = cb pos in
    y.(pos) <- c;
    let a = Float.abs c in
    if a > !cmax then cmax := a
  done;
  solve Sparse.Basis.btran state ~basis ~pat y;
  let worst = ref 0. in
  for pos = 0 to m - 1 do
    let s = ref (-.(cb pos)) in
    col pos (fun row v -> s := !s +. (v *. y.(row)));
    let a = Float.abs !s in
    if a > !worst then worst := a
  done;
  !worst /. !cmax

(* Hager's 1-norm estimator: power iteration on the subgradient of
   x |-> ||B^-1 x||_1, at most three FTRAN/BTRAN pairs per start.  The
   start vectors and the e_j refinements are known analytically, so no
   third scratch array is needed: z^T x is the (signed) mean of z
   (dense starts) or z_j (unit refinement).

   Two starts are probed and the larger estimate kept: the uniform
   x = e/m, and an alternating (+/-)e/m.  A single uniform start
   systematically misses near-dependent row pairs — for a basis block
   [[1,1],[1,1+eps]] the inverse's row sums cancel exactly, so the
   uniform probe (and its sign vector) never sees the 1/eps direction,
   while the alternating probe hits it head-on.  This is the classic
   LINPACK-style sign heuristic grafted onto Hager's iteration. *)
let hager_pass state ~basis ~pat ~alt =
  let m = state.m in
  let y = state.hy and z = state.hz in
  let est = ref 0. in
  let xj = ref (-1) in
  (try
     for _it = 1 to 3 do
       (if !xj < 0 then begin
          let h = 1. /. float_of_int m in
          for i = 0 to m - 1 do
            y.(i) <- (if alt && i land 1 = 1 then -.h else h)
          done
        end
        else begin
          Array.fill y 0 m 0.;
          y.(!xj) <- 1.
        end);
       solve Sparse.Basis.ftran state ~basis ~pat y;
       let y1 = ref 0. in
       for i = 0 to m - 1 do
         y1 := !y1 +. Float.abs y.(i)
       done;
       est := !y1;
       for i = 0 to m - 1 do
         z.(i) <- (if y.(i) >= 0. then 1. else -1.)
       done;
       solve Sparse.Basis.btran state ~basis ~pat z;
       let zmax = ref 0. and jmax = ref 0 in
       for i = 0 to m - 1 do
         let a = Float.abs z.(i) in
         if a > !zmax then begin
           zmax := a;
           jmax := i
         end
       done;
       let zx =
         if !xj >= 0 then z.(!xj)
         else begin
           let s = ref 0. in
           for i = 0 to m - 1 do
             s := !s +. (if alt && i land 1 = 1 then -.z.(i) else z.(i))
           done;
           !s /. float_of_int m
         end
       in
       if !zmax <= zx then raise Exit;
       xj := !jmax
     done
   with Exit -> ());
  !est

let cond1_estimate state ~basis ~pat =
  if state.m = 0 then 1.
  else
    let eu = hager_pass state ~basis ~pat ~alt:false in
    let ea = hager_pass state ~basis ~pat ~alt:true in
    Sparse.Basis.norm1 basis *. Float.max eu ea

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

let sample state ~basis ~pat ~kind ~phase ~iteration ~col ~cb ~btilde ~xb
    ~eta ~patched =
  Trace.incr c_samples;
  if Array.length state.hy = 0 then begin
    state.hy <- Array.make (max 1 state.m) 0.;
    state.hz <- Array.make (max 1 state.m) 0.
  end;
  let pr = primal_residual state ~col ~btilde ~xb in
  let dr = dual_residual state ~basis ~pat ~col ~cb in
  let cond = cond1_estimate state ~basis ~pat in
  let growth = Sparse.Basis.lu_growth basis in
  let near = Sparse.Basis.near_singular_rows basis ~rtol:near_singular_rtol in
  Trace.observe h_primal_res pr;
  Trace.observe h_dual_res dr;
  Trace.observe h_cond (Float.max 0. (Float.log10 cond));
  Trace.observe h_growth growth;
  if eta.ee_len > 0 then Trace.observe h_eta_growth eta.ee_growth;
  if eta.ee_rejections > 0 then Trace.add c_eta_rejections eta.ee_rejections;
  if near <> [] then Trace.add c_near_singular (List.length near);
  let tripped =
    List.filter_map
      (fun (name, hit) -> if hit then Some name else None)
      [
        ("cond", cond > cond_limit || Float.is_nan cond);
        ("primal_residual", pr > residual_limit || Float.is_nan pr);
        ("dual_residual", dr > residual_limit || Float.is_nan dr);
        ("lu_growth", growth > growth_limit);
      ]
  in
  if tripped <> [] then Trace.incr c_trips;
  if state.capture then
    state.samples <-
      {
        s_kind = kind;
        s_phase = phase;
        s_iteration = iteration;
        s_primal_res = pr;
        s_dual_res = dr;
        s_cond1 = cond;
        s_growth = growth;
        s_udiag_min = Sparse.Basis.u_diag_min basis;
        s_udiag_max = Sparse.Basis.u_diag_max basis;
        s_eta = eta;
        s_near_singular = near;
        s_patched = patched;
        s_tripped = tripped;
      }
      :: state.samples;
  if tripped <> [] then state.on_trip tripped

let note_stall state ~phase ~iteration ~run =
  Trace.incr c_stalls;
  state.stalls <-
    { st_phase = phase; st_iteration = iteration; st_run = run } :: state.stalls

let note_loop_end state ~phase ~iterations ~max_run ~bland =
  if max_run > 0 then Trace.observe h_degen (float_of_int max_run);
  if bland > 0 then Trace.add c_bland bland;
  if state.capture && iterations > 0 then
    state.loops <-
      { ln_phase = phase; ln_iterations = iterations; ln_max_run = max_run;
        ln_bland = bland }
      :: state.loops

(* ------------------------------------------------------------------ *)
(* Reproducible LP dumps                                               *)
(* ------------------------------------------------------------------ *)

(* Floats round-trip through the hexadecimal literal form ("%h", read
   back by [float_of_string]) so a dump replays the exact bit pattern
   that tripped the threshold — stored as JSON strings because JSON
   numbers cannot carry hex literals. *)
let hex_of_float x =
  match classify_float x with
  | FP_nan -> "nan"
  | FP_infinite -> if x > 0. then "inf" else "-inf"
  | _ -> Printf.sprintf "%h" x

let float_of_hex s = float_of_string_opt s

let sense_to_string = function
  | Lp_model.Le -> "le"
  | Lp_model.Ge -> "ge"
  | Lp_model.Eq -> "eq"

let sense_of_string = function
  | "le" -> Some Lp_model.Le
  | "ge" -> Some Lp_model.Ge
  | "eq" -> Some Lp_model.Eq
  | _ -> None

let model_to_json model =
  let hex x = Json.String (hex_of_float x) in
  Json.Object
    [
      ("name", Json.String (Lp_model.name model));
      ( "vars",
        Json.Array
          (List.init (Lp_model.nvars model) (fun j ->
               Json.Object
                 [
                   ("name", Json.String (Lp_model.var_name model j));
                   ("lb", hex (Lp_model.lb model j));
                   ("ub", hex (Lp_model.ub model j));
                   ("obj", hex (Lp_model.obj_coef model j));
                 ])) );
      ( "rows",
        Json.Array
          (List.init (Lp_model.nrows model) (fun i ->
               Json.Object
                 [
                   ("name", Json.String (Lp_model.row_name model i));
                   ("sense", Json.String (sense_to_string (Lp_model.row_sense model i)));
                   ("rhs", hex (Lp_model.rhs model i));
                   ( "coeffs",
                     Json.Array
                       (List.map
                          (fun (j, v) -> Json.Array [ Json.int j; hex v ])
                          (Lp_model.row_coeffs model i)) );
                 ])) );
    ]

let ( let* ) o f = match o with Some v -> f v | None -> None

let json_hex j = let* s = Json.to_string j in float_of_hex s

let model_of_json j =
  let fail msg = Error ("bad model: " ^ msg) in
  match
    let* name = let* n = Json.member "name" j in Json.to_string n in
    let* vars = let* v = Json.member "vars" j in Json.to_list v in
    let* rows = let* r = Json.member "rows" j in Json.to_list r in
    let model = Lp_model.create ~name () in
    let* () =
      List.fold_left
        (fun acc v ->
          let* () = acc in
          let* name = let* n = Json.member "name" v in Json.to_string n in
          let* lb = let* x = Json.member "lb" v in json_hex x in
          let* ub = let* x = Json.member "ub" v in json_hex x in
          let* obj = let* x = Json.member "obj" v in json_hex x in
          let (_ : int) = Lp_model.add_var model ~name ~lb ~ub ~obj () in
          Some ())
        (Some ()) vars
    in
    let* () =
      List.fold_left
        (fun acc r ->
          let* () = acc in
          let* name = let* n = Json.member "name" r in Json.to_string n in
          let* sense =
            let* s = Json.member "sense" r in
            let* s = Json.to_string s in
            sense_of_string s
          in
          let* rhs = let* x = Json.member "rhs" r in json_hex x in
          let* coeffs = let* c = Json.member "coeffs" r in Json.to_list c in
          let* coeffs =
            List.fold_left
              (fun acc c ->
                let* acc = acc in
                match Json.to_list c with
                | Some [ jv; xv ] ->
                    let* j = Json.to_int jv in
                    let* x = json_hex xv in
                    Some ((j, x) :: acc)
                | _ -> None)
              (Some []) coeffs
          in
          let (_ : int) =
            Lp_model.add_row model ~name sense rhs (List.rev coeffs)
          in
          Some ())
        (Some ()) rows
    in
    Some model
  with
  | Some model -> Ok model
  | None -> fail "missing or ill-typed field"
  | exception Invalid_argument msg -> fail msg

let dump_schema = "flexile-health-dump"
let dump_version = 1

let dump_dir () =
  match Sys.getenv_opt "FLEXILE_HEALTH_DUMP" with
  | Some d when String.length d > 0 -> Some d
  | _ -> None

let sanitize_name s =
  let b = Bytes.of_string (if s = "" then "lp" else s) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ()
      | _ -> Bytes.set b i '-')
    b;
  Bytes.to_string b

let dump_path ~dir ~model =
  Filename.concat dir
    ("health-dump-" ^ sanitize_name (Lp_model.name model) ^ ".json")

type dump = {
  d_reasons : string list;
  d_phase : int;
  d_iteration : int;
  d_eta_limit : int option;
  d_model : Lp_model.t;
  d_basis : int array;
  d_vstat : int array;
}

let dump_to_json d =
  let ints a = Json.Array (Array.to_list (Array.map Json.int a)) in
  Json.Object
    [
      ("schema", Json.String dump_schema);
      ("version", Json.int dump_version);
      ("reasons", Json.Array (List.map (fun r -> Json.String r) d.d_reasons));
      ("phase", Json.int d.d_phase);
      ("iteration", Json.int d.d_iteration);
      ( "eta_limit",
        match d.d_eta_limit with None -> Json.Null | Some l -> Json.int l );
      ("model", model_to_json d.d_model);
      ("basis", ints d.d_basis);
      ("vstat", ints d.d_vstat);
    ]

(* Writes (or deterministically overwrites) the snapshot for [d]'s
   model in the FLEXILE_HEALTH_DUMP directory.  No-op returning [None]
   when the variable is unset — sampling must never create files unless
   explicitly pointed at a scratch directory. *)
let write_dump d =
  match dump_dir () with
  | None -> None
  | Some dir ->
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
       with Sys_error _ -> ());
      let path = dump_path ~dir ~model:d.d_model in
      Json.write_file path (dump_to_json d);
      Trace.incr c_dumps;
      Some path

(* A dumped basis indexes the simplex's column space: the model's
   variables, then one slack and one artificial per row; a status is
   at-lower, at-upper, basic or free (codes 0-3). *)
let check_basis model ~basis ~vstat =
  let m = Lp_model.nrows model in
  let ncols = Lp_model.nvars model + (2 * m) in
  let within hi a = Array.for_all (fun v -> v >= 0 && v < hi) a in
  if Array.length basis <> m then
    Error
      (Printf.sprintf "basis has %d entries for %d rows" (Array.length basis) m)
  else if Array.length vstat <> ncols then
    Error
      (Printf.sprintf "vstat has %d entries for %d columns"
         (Array.length vstat) ncols)
  else if not (within ncols basis) then Error "basis entry out of range"
  else if not (within 4 vstat) then Error "vstat entry out of range"
  else Ok ()

let read_dump path =
  let ( let* ) = Result.bind in
  let field name conv j =
    Option.to_result ~none:("missing or ill-typed field " ^ name)
      (Option.bind (Json.member name j) conv)
  in
  let all conv l =
    List.fold_right
      (fun x acc -> Option.bind acc (fun acc -> Option.map (fun v -> v :: acc) (conv x)))
      l (Some [])
  in
  let list conv j = Option.bind (Json.to_list j) (all conv) in
  let ints name j = Result.map Array.of_list (field name (list Json.to_int) j) in
  Result.map_error (fun e -> "health dump: " ^ e)
    (let* text =
       try Ok (In_channel.with_open_bin path In_channel.input_all)
       with Sys_error msg -> Error msg
     in
     let* j = Json.parse text in
     let* schema = field "schema" Json.to_string j in
     let* version = field "version" Json.to_int j in
     let* () =
       if schema = dump_schema && version <= dump_version then Ok ()
       else Error "schema mismatch"
     in
     let* reasons = field "reasons" (list Json.to_string) j in
     let* phase = field "phase" Json.to_int j in
     let* iteration = field "iteration" Json.to_int j in
     let* eta_limit =
       field "eta_limit"
         (function Json.Null -> Some None | v -> Option.map Option.some (Json.to_int v))
         j
     in
     let* model = Result.bind (field "model" Option.some j) model_of_json in
     let* basis = ints "basis" j in
     let* vstat = ints "vstat" j in
     let* () = check_basis model ~basis ~vstat in
     Ok
       {
         d_reasons = reasons;
         d_phase = phase;
         d_iteration = iteration;
         d_eta_limit = eta_limit;
         d_model = model;
         d_basis = basis;
         d_vstat = vstat;
       })
