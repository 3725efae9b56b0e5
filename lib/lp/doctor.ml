(* `flexile doctor`: replay a solve with elevated instrumentation and
   emit a structured diagnosis (DESIGN.md section 15).

   The doctor runs [Simplex.solve_doctor] — the ordinary solver with
   the health timeline captured in memory — over one of three sources:
   a seeded pathological fixture, a snapshot dumped by a threshold trip
   ([Health.write_dump]), or a caller-provided model.  It then distills
   the timeline into a verdict: which phase stalled, which rows are
   near-singular, which thresholds tripped, and whether an optimal
   answer carries an LP duality certificate ([Certificate]: primal
   feasibility, dual signs and a zero duality gap, recomputed from the
   model).

   Determinism contract: a fixture or dump diagnosis depends only on
   the LP bits — the solve runs on the calling domain, Json.encode
   writes every number by one rule that depends only on its bits, and
   no wall-clock or job-count value appears — so the report is
   byte-identical at any [--jobs], which `make determinism` asserts. *)

module Json = Flexile_util.Json

(* ------------------------------------------------------------------ *)
(* Seeded pathological fixtures                                        *)
(* ------------------------------------------------------------------ *)

(* A chain  y_0 <= 0,  y_i <= y_{i-1}  with objective -y_{k-1}: every
   constraint is tight at the (unique, all-zero) optimum, so the
   simplex performs ~k consecutive zero-step pivots walking the chain
   down — a guaranteed degeneracy stall of tunable length. *)
let add_degenerate_chain m k =
  let y =
    Array.init k (fun i ->
        Lp_model.add_var m
          ~name:("ch_y" ^ string_of_int i)
          ~lb:0. ~ub:10.
          ~obj:(if i = k - 1 then -1. else 0.)
          ())
  in
  ignore (Lp_model.add_row m ~name:"ch_r0" Lp_model.Le 0. [ (y.(0), 1.) ]);
  for i = 1 to k - 1 do
    ignore
      (Lp_model.add_row m
         ~name:("ch_r" ^ string_of_int i)
         Lp_model.Le 0.
         [ (y.(i), 1.); (y.(i - 1), -1.) ])
  done

(* Two equality rows that are parallel up to a relative eps = 1e-10,
   both scaled by 1e6.  The unique solution x0 = x1 = 0.5 has both
   structural variables strictly interior, so the optimal basis must
   contain the 2x2 block [[s,s],[s,s(1+eps)]]: condition ~4/eps = 4e10
   and a U pivot ratio of eps — tripping both the 1e10 condition
   threshold (and with it the snapshot dump) and the 1e-7 near-singular
   row detector, while the small pivot (s*eps = 1e-4) stays far above
   the 1e-11 absolute tolerance, so the basis factorizes rather than
   being patched.

   Two details keep the simplex honest.  The row scaling makes the
   constraints distinguishable: unscaled, conflating them costs only
   eps/2 = 5e-11 of infeasibility — below the 1e-7 tolerance, so the
   solver would simply never build the bad basis; scaled, any point
   with x1 off 0.5 by 0.1 violates some row by ~5e-6.  (Scaling only
   one row fails too: the solver satisfies the scaled row exactly and
   parks the sub-tolerance discrepancy on the unscaled one.)  And the
   objective pull on x1 (bound kept interior at 0.6) forces the pivot
   that brings x1 into the basis; with a zero objective the all-slack
   point is accepted as-is. *)
let near_singular_eps = 1e-10
let near_singular_scale = 1e6

let near_singular_fixture () =
  let m = Lp_model.create ~name:"near-singular-fixture" () in
  let eps = near_singular_eps and s = near_singular_scale in
  let x0 = Lp_model.add_var m ~name:"ns_x0" ~lb:0. ~ub:10. () in
  let x1 = Lp_model.add_var m ~name:"ns_x1" ~lb:0. ~ub:0.6 ~obj:(-1.) () in
  ignore
    (Lp_model.add_row m ~name:"ns_r0" Lp_model.Eq s [ (x0, s); (x1, s) ]);
  ignore
    (Lp_model.add_row m ~name:"ns_r1" Lp_model.Eq
       (s *. (1. +. (eps /. 2.)))
       [ (x0, s); (x1, s *. (1. +. eps)) ]);
  add_degenerate_chain m 16;
  m

let degenerate_fixture () =
  let m = Lp_model.create ~name:"degenerate-chain-fixture" () in
  add_degenerate_chain m 16;
  m

let fixture_names = [ "near-singular"; "degenerate" ]

let fixture = function
  | "near-singular" -> Some (near_singular_fixture ())
  | "degenerate" -> Some (degenerate_fixture ())
  | _ -> None

(* Elevated instrumentation: the doctor drops the stall limit from the
   production 120 (the Bland threshold) to 8 so short degenerate
   episodes — invisible in normal operation by design — show up in a
   diagnosis run. *)
let doctor_stall_limit = 8

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)
(* ------------------------------------------------------------------ *)

let phase_name = function
  | 0 -> "setup"
  | 1 -> "phase1"
  | 2 -> "phase2"
  | 3 -> "dual"
  | _ -> "unknown"

let status_name = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iteration_limit"

let num x = Json.Number x
let str x = Json.String x
let strs l = Json.Array (List.map str l)

let sample_json model (s : Health.sample) =
  Json.Object
    [
      ( "kind",
        str
          (match s.Health.s_kind with
          | Health.Refactor -> "refactor"
          | Health.Final -> "final") );
      ("phase", str (phase_name s.Health.s_phase));
      ("iteration", Json.int s.Health.s_iteration);
      ("primal_residual", num s.Health.s_primal_res);
      ("dual_residual", num s.Health.s_dual_res);
      ("cond1", num s.Health.s_cond1);
      ("lu_growth", num s.Health.s_growth);
      ("udiag_min", num s.Health.s_udiag_min);
      ("udiag_max", num s.Health.s_udiag_max);
      ("eta_len", Json.int s.Health.s_eta.Health.ee_len);
      ("eta_rejections", Json.int s.Health.s_eta.Health.ee_rejections);
      ("eta_growth", num s.Health.s_eta.Health.ee_growth);
      ( "near_singular",
        Json.Array
          (List.map
             (fun (row, udiag) ->
               Json.Object
                 [
                   ("row", Json.int row);
                   ( "name",
                     str
                       (if row < Lp_model.nrows model then
                          Lp_model.row_name model row
                        else "") );
                   ("udiag", num udiag);
                 ])
             s.Health.s_near_singular) );
      ( "patched",
        Json.Array
          (List.map
             (fun (pos, row) -> Json.Array [ Json.int pos; Json.int row ])
             s.Health.s_patched) );
      ("tripped", strs s.Health.s_tripped);
    ]

(* ------------------------------------------------------------------ *)
(* Diagnosis                                                           *)
(* ------------------------------------------------------------------ *)

type diagnosis = {
  dg_healthy : bool;
  dg_stalling_phase : string option;
  dg_near_singular : (int * string * float) list; (* row, name, min udiag *)
  dg_tripped : string list; (* union, first-seen order *)
  dg_max_cond : float;
  dg_max_primal_res : float;
  dg_max_dual_res : float;
  dg_max_growth : float;
  dg_verdicts : string list;
}

let diagnose ~model ~(samples : Health.sample list)
    ~(stalls : Health.stall list) ~(loops : Health.loop_note list)
    ~(certificate_verdict : string option) =
  let maxf f = List.fold_left (fun a s -> Float.max a (f s)) 0. samples in
  let max_cond = maxf (fun s -> s.Health.s_cond1) in
  let max_pr = maxf (fun s -> s.Health.s_primal_res) in
  let max_dr = maxf (fun s -> s.Health.s_dual_res) in
  let max_growth = maxf (fun s -> s.Health.s_growth) in
  (* union of near-singular rows, keeping the smallest |u_diag| seen *)
  let near =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc (row, udiag) ->
            match List.assoc_opt row acc with
            | Some prev when prev <= udiag -> acc
            | _ -> (row, udiag) :: List.remove_assoc row acc)
          acc s.Health.s_near_singular)
      [] samples
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (row, udiag) ->
           ( row,
             (if row < Lp_model.nrows model then Lp_model.row_name model row
              else "slack-row-" ^ string_of_int row),
             udiag ))
  in
  let tripped =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc r -> if List.mem r acc then acc else acc @ [ r ])
          acc s.Health.s_tripped)
      [] samples
  in
  (* stalling phase: the phase holding the longest zero-step run *)
  let stalling_phase =
    match
      List.fold_left
        (fun acc (st : Health.stall) ->
          match acc with
          | Some (_, run) when run >= st.Health.st_run -> acc
          | _ -> Some (st.Health.st_phase, st.Health.st_run))
        None stalls
    with
    | Some (phase, _) -> Some (phase_name phase)
    | None -> None
  in
  let verdicts = ref [] in
  let say s = verdicts := s :: !verdicts in
  (match stalling_phase with
  | Some p ->
      let worst =
        List.fold_left
          (fun a (st : Health.stall) -> max a st.Health.st_run)
          0 stalls
      in
      let bland =
        List.fold_left
          (fun a (l : Health.loop_note) -> a + l.Health.ln_bland)
          0 loops
      in
      say
        (Printf.sprintf
           "%s stalled: %d consecutive zero-step ratio tests (Bland dwell %d \
            iterations)"
           p worst bland)
  | None -> ());
  if near <> [] then
    say
      (Printf.sprintf "near-singular basis rows: %s (smallest |u_diag| %.9g)"
         (String.concat ", " (List.map (fun (_, n, _) -> n) near))
         (List.fold_left (fun a (_, _, u) -> Float.min a u) infinity near));
  List.iter
    (fun r ->
      let detail =
        match r with
        | "cond" -> Printf.sprintf "condition estimate %.9g" max_cond
        | "primal_residual" -> Printf.sprintf "primal residual %.9g" max_pr
        | "dual_residual" -> Printf.sprintf "dual residual %.9g" max_dr
        | "lu_growth" -> Printf.sprintf "LU element growth %.9g" max_growth
        | _ -> "see timeline"
      in
      say (Printf.sprintf "threshold tripped: %s (%s)" r detail))
    tripped;
  (match certificate_verdict with Some v -> say v | None -> ());
  let healthy = stalls = [] && near = [] && tripped = [] in
  if healthy && !verdicts = [] then
    say
      "no anomalies: residuals, conditioning and pivot behavior within \
       thresholds";
  {
    dg_healthy = healthy;
    dg_stalling_phase = stalling_phase;
    dg_near_singular = near;
    dg_tripped = tripped;
    dg_max_cond = max_cond;
    dg_max_primal_res = max_pr;
    dg_max_dual_res = max_dr;
    dg_max_growth = max_growth;
    dg_verdicts = List.rev !verdicts;
  }

(* ------------------------------------------------------------------ *)
(* Running a diagnosis                                                 *)
(* ------------------------------------------------------------------ *)

type source =
  | Src_fixture of string
  | Src_dump of string * Health.dump

type result = {
  r_report : Json.t; (* the diagnosis document *)
  r_solution : Simplex.solution;
  r_health : Health.state;
  r_healthy : bool;
}

(* An optimality certificate only exists for an optimal answer. *)
let certificate model (sol : Simplex.solution) =
  match sol.Simplex.status with
  | Simplex.Optimal -> Some (Certificate.check model sol)
  | _ -> None

let render ~source ~model ~(sol : Simplex.solution) ~health
    ~(dump_state : Health.state option) =
  let samples =
    Health.samples health
    @ (match dump_state with Some h -> Health.samples h | None -> [])
  in
  let stalls = Health.stalls health in
  let loops = Health.loop_notes health in
  let cert = certificate model sol in
  let certificate_verdict =
    match cert with
    | Some c when not (Certificate.certified c) ->
        Some
          (Printf.sprintf
             "certificate failed: primal violation %.9g, dual violation \
              %.9g, gap %.9g"
             c.Certificate.primal_violation c.Certificate.dual_violation
             c.Certificate.gap)
    | _ -> None
  in
  let dg = diagnose ~model ~samples ~stalls ~loops ~certificate_verdict in
  let source =
    match source with
    | Src_fixture name -> [ ("kind", str "fixture"); ("name", str name) ]
    | Src_dump (path, d) ->
        [
          ("kind", str "dump");
          ("file", str (Filename.basename path));
          ("reasons", strs d.Health.d_reasons);
          ("phase", str (phase_name d.Health.d_phase));
          ("iteration", Json.int d.Health.d_iteration);
        ]
  in
  let report =
    Json.Object
      [
        ("schema", str "flexile-doctor");
        ("version", Json.int 2);
        ("source", Json.Object source);
        ( "model",
          Json.Object
            [
              ("name", str (Lp_model.name model));
              ("vars", Json.int (Lp_model.nvars model));
              ("rows", Json.int (Lp_model.nrows model));
            ] );
        ("status", str (status_name sol.Simplex.status));
        ("objective", num sol.Simplex.obj);
        ("iterations", Json.int sol.Simplex.iterations);
        (* thresholds the run used *)
        ( "thresholds",
          Json.Object
            [
              ("cond_limit", num Health.cond_limit);
              ("residual_limit", num Health.residual_limit);
              ("growth_limit", num Health.growth_limit);
              ("stall_limit", Json.int (Health.stall_limit health));
              ("near_singular_rtol", num Health.near_singular_rtol);
            ] );
        ( "diagnosis",
          Json.Object
            [
              ("healthy", Json.Bool dg.dg_healthy);
              ( "stalling_phase",
                match dg.dg_stalling_phase with None -> Json.Null | Some p -> str p );
              ( "near_singular_rows",
                Json.Array
                  (List.map
                     (fun (row, name, udiag) ->
                       Json.Object
                         [
                           ("row", Json.int row);
                           ("name", str name);
                           ("udiag", num udiag);
                         ])
                     dg.dg_near_singular) );
              ("thresholds_tripped", strs dg.dg_tripped);
              ("max_cond1", num dg.dg_max_cond);
              ("max_primal_residual", num dg.dg_max_primal_res);
              ("max_dual_residual", num dg.dg_max_dual_res);
              ("max_lu_growth", num dg.dg_max_growth);
              ("verdicts", strs dg.dg_verdicts);
            ] );
        ( "stalls",
          Json.Array
            (List.map
               (fun (st : Health.stall) ->
                 Json.Object
                   [
                     ("phase", str (phase_name st.Health.st_phase));
                     ("iteration", Json.int st.Health.st_iteration);
                     ("run", Json.int st.Health.st_run);
                   ])
               stalls) );
        ( "loops",
          Json.Array
            (List.map
               (fun (l : Health.loop_note) ->
                 Json.Object
                   [
                     ("phase", str (phase_name l.Health.ln_phase));
                     ("iterations", Json.int l.Health.ln_iterations);
                     ("max_zero_run", Json.int l.Health.ln_max_run);
                     ("bland_iterations", Json.int l.Health.ln_bland);
                   ])
               loops) );
        (* the dumped basis measured in isolation, when replaying a dump *)
        ( "dump_basis",
          match Option.map Health.samples dump_state with
          | Some (s :: _) -> sample_json model s
          | _ -> Json.Null );
        (* per-refactorization timeline of the replay *)
        ("timeline", Json.Array (List.map (sample_json model) (Health.samples health)));
        ( "certificate",
          match cert with
          | None -> Json.Null
          | Some c ->
              Json.Object
                [
                  ("primal_violation", num c.Certificate.primal_violation);
                  ("dual_violation", num c.Certificate.dual_violation);
                  ("gap", num c.Certificate.gap);
                  ("certified", Json.Bool (Certificate.certified c));
                ] );
      ]
  in
  { r_report = report; r_solution = sol; r_health = health; r_healthy = dg.dg_healthy }

let run_lp ~source ?dump model =
  let eta_limit =
    match dump with
    | Some d -> d.Health.d_eta_limit
    | None -> None
  in
  let sol, health =
    Simplex.solve_doctor ?eta_limit ~stall_limit:doctor_stall_limit model
  in
  let dump_state =
    match dump with
    | None -> None
    | Some d ->
        Some
          (Simplex.diagnose_basis ?eta_limit:d.Health.d_eta_limit
             ~stall_limit:doctor_stall_limit
             ~phase:d.Health.d_phase ~iteration:d.Health.d_iteration model
             ~bas:d.Health.d_basis ~vstat:d.Health.d_vstat)
  in
  render ~source ~model ~sol ~health ~dump_state

let run_fixture name =
  match fixture name with
  | None ->
      Error
        ("unknown fixture " ^ name ^ " (expected "
        ^ String.concat " or " fixture_names
        ^ ")")
  | Some model -> Ok (run_lp ~source:(Src_fixture name) model)

let run_dump path =
  match Health.read_dump path with
  | Error e -> Error e
  | Ok d ->
      Ok (run_lp ~source:(Src_dump (path, d)) ~dump:d d.Health.d_model)
