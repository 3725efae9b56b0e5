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
   the LP bits — the solve runs on the calling domain, every float in
   the report is formatted with a fixed "%.9g", and no wall-clock or
   job-count value appears — so the report is byte-identical at any
   [--jobs], which `make doctor-smoke` asserts. *)

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

(* Elevated instrumentation: unless the operator pinned a stall limit
   through the environment, the doctor drops it from the production 120
   (the Bland threshold) to 8 so short degenerate episodes — invisible
   in normal operation by design — show up in a diagnosis run. *)
let doctor_stall_limit = 8

let doctor_thresholds () =
  let t = Health.default_thresholds () in
  match Sys.getenv_opt "FLEXILE_HEALTH_STALL" with
  | Some s when not (String.equal s "") -> t
  | _ -> { t with Health.stall_limit = doctor_stall_limit }

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

let add_str b s =
  Buffer.add_char b '"';
  Buffer.add_string b (Flexile_util.Json.escape s);
  Buffer.add_char b '"'

(* Fixed-width decimal rendering: deterministic for identical bits, and
   every value in a diagnosis comes from the single-domain replay, so
   the whole report is byte-stable at any job count. *)
let add_num b v =
  match classify_float v with
  | FP_nan -> Buffer.add_string b "\"nan\""
  | FP_infinite -> Buffer.add_string b (if v > 0. then "\"inf\"" else "\"-inf\"")
  | _ -> Buffer.add_string b (Printf.sprintf "%.9g" v)

let add_list b xs f =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    xs;
  Buffer.add_char b ']'

let add_sample b model (s : Health.sample) =
  Buffer.add_string b "{\"kind\":";
  add_str b (match s.Health.s_kind with Health.Refactor -> "refactor" | Health.Final -> "final");
  Buffer.add_string b ",\"phase\":";
  add_str b (phase_name s.Health.s_phase);
  Buffer.add_string b (",\"iteration\":" ^ string_of_int s.Health.s_iteration);
  Buffer.add_string b ",\"primal_residual\":";
  add_num b s.Health.s_primal_res;
  Buffer.add_string b ",\"dual_residual\":";
  add_num b s.Health.s_dual_res;
  Buffer.add_string b ",\"cond1\":";
  add_num b s.Health.s_cond1;
  Buffer.add_string b ",\"lu_growth\":";
  add_num b s.Health.s_growth;
  Buffer.add_string b ",\"udiag_min\":";
  add_num b s.Health.s_udiag_min;
  Buffer.add_string b ",\"udiag_max\":";
  add_num b s.Health.s_udiag_max;
  Buffer.add_string b
    (",\"eta_len\":" ^ string_of_int s.Health.s_eta.Health.ee_len);
  Buffer.add_string b
    (",\"eta_rejections\":" ^ string_of_int s.Health.s_eta.Health.ee_rejections);
  Buffer.add_string b ",\"eta_growth\":";
  add_num b s.Health.s_eta.Health.ee_growth;
  Buffer.add_string b ",\"near_singular\":";
  add_list b s.Health.s_near_singular (fun (row, udiag) ->
      Buffer.add_string b "{\"row\":";
      Buffer.add_string b (string_of_int row);
      Buffer.add_string b ",\"name\":";
      add_str b (if row < Lp_model.nrows model then Lp_model.row_name model row else "");
      Buffer.add_string b ",\"udiag\":";
      add_num b udiag;
      Buffer.add_char b '}');
  Buffer.add_string b ",\"patched\":";
  add_list b s.Health.s_patched (fun (pos, row) ->
      Buffer.add_string b
        ("[" ^ string_of_int pos ^ "," ^ string_of_int row ^ "]"));
  Buffer.add_string b ",\"tripped\":";
  add_list b s.Health.s_tripped (fun r -> add_str b r);
  Buffer.add_char b '}'

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
  | Src_model

type result = {
  r_report : string; (* the diagnosis document, JSON *)
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
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"schema\":\"flexile-doctor\",\"version\":2";
  Buffer.add_string b ",\"source\":";
  (match source with
  | Src_fixture name ->
      Buffer.add_string b "{\"kind\":\"fixture\",\"name\":";
      add_str b name;
      Buffer.add_char b '}'
  | Src_dump (path, d) ->
      Buffer.add_string b "{\"kind\":\"dump\",\"file\":";
      add_str b (Filename.basename path);
      Buffer.add_string b ",\"reasons\":";
      add_list b d.Health.d_reasons (fun r -> add_str b r);
      Buffer.add_string b ",\"phase\":";
      add_str b (phase_name d.Health.d_phase);
      Buffer.add_string b
        (",\"iteration\":" ^ string_of_int d.Health.d_iteration);
      Buffer.add_char b '}'
  | Src_model -> Buffer.add_string b "{\"kind\":\"model\"}");
  Buffer.add_string b ",\"model\":{\"name\":";
  add_str b (Lp_model.name model);
  Buffer.add_string b
    (",\"vars\":" ^ string_of_int (Lp_model.nvars model)
   ^ ",\"rows\":" ^ string_of_int (Lp_model.nrows model) ^ "}");
  Buffer.add_string b ",\"status\":";
  add_str b (status_name sol.Simplex.status);
  Buffer.add_string b ",\"objective\":";
  add_num b sol.Simplex.obj;
  Buffer.add_string b (",\"iterations\":" ^ string_of_int sol.Simplex.iterations);
  (* thresholds the run used *)
  let t = Health.thresholds health in
  Buffer.add_string b ",\"thresholds\":{\"cond_limit\":";
  add_num b t.Health.cond_limit;
  Buffer.add_string b ",\"residual_limit\":";
  add_num b t.Health.residual_limit;
  Buffer.add_string b ",\"growth_limit\":";
  add_num b t.Health.growth_limit;
  Buffer.add_string b
    (",\"stall_limit\":" ^ string_of_int t.Health.stall_limit);
  Buffer.add_string b ",\"near_singular_rtol\":";
  add_num b t.Health.near_singular_rtol;
  Buffer.add_char b '}';
  (* diagnosis *)
  Buffer.add_string b ",\"diagnosis\":{\"healthy\":";
  Buffer.add_string b (if dg.dg_healthy then "true" else "false");
  Buffer.add_string b ",\"stalling_phase\":";
  (match dg.dg_stalling_phase with
  | None -> Buffer.add_string b "null"
  | Some p -> add_str b p);
  Buffer.add_string b ",\"near_singular_rows\":";
  add_list b dg.dg_near_singular (fun (row, name, udiag) ->
      Buffer.add_string b ("{\"row\":" ^ string_of_int row ^ ",\"name\":");
      add_str b name;
      Buffer.add_string b ",\"udiag\":";
      add_num b udiag;
      Buffer.add_char b '}');
  Buffer.add_string b ",\"thresholds_tripped\":";
  add_list b dg.dg_tripped (fun r -> add_str b r);
  Buffer.add_string b ",\"max_cond1\":";
  add_num b dg.dg_max_cond;
  Buffer.add_string b ",\"max_primal_residual\":";
  add_num b dg.dg_max_primal_res;
  Buffer.add_string b ",\"max_dual_residual\":";
  add_num b dg.dg_max_dual_res;
  Buffer.add_string b ",\"max_lu_growth\":";
  add_num b dg.dg_max_growth;
  Buffer.add_string b ",\"verdicts\":";
  add_list b dg.dg_verdicts (fun v -> add_str b v);
  Buffer.add_char b '}';
  (* stalls and loop notes *)
  Buffer.add_string b ",\"stalls\":";
  add_list b stalls (fun (st : Health.stall) ->
      Buffer.add_string b "{\"phase\":";
      add_str b (phase_name st.Health.st_phase);
      Buffer.add_string b
        (",\"iteration\":" ^ string_of_int st.Health.st_iteration
       ^ ",\"run\":" ^ string_of_int st.Health.st_run ^ "}"));
  Buffer.add_string b ",\"loops\":";
  add_list b loops (fun (l : Health.loop_note) ->
      Buffer.add_string b "{\"phase\":";
      add_str b (phase_name l.Health.ln_phase);
      Buffer.add_string b
        (",\"iterations\":" ^ string_of_int l.Health.ln_iterations
       ^ ",\"max_zero_run\":" ^ string_of_int l.Health.ln_max_run
       ^ ",\"bland_iterations\":" ^ string_of_int l.Health.ln_bland ^ "}"));
  (* the dumped basis measured in isolation, when replaying a dump *)
  Buffer.add_string b ",\"dump_basis\":";
  (match dump_state with
  | None -> Buffer.add_string b "null"
  | Some h -> (
      match Health.samples h with
      | s :: _ -> add_sample b model s
      | [] -> Buffer.add_string b "null"));
  (* per-refactorization timeline of the replay *)
  Buffer.add_string b ",\"timeline\":";
  add_list b (Health.samples health) (fun s -> add_sample b model s);
  Buffer.add_string b ",\"certificate\":";
  (match cert with
  | None -> Buffer.add_string b "null"
  | Some c ->
      Buffer.add_string b "{\"primal_violation\":";
      add_num b c.Certificate.primal_violation;
      Buffer.add_string b ",\"dual_violation\":";
      add_num b c.Certificate.dual_violation;
      Buffer.add_string b ",\"gap\":";
      add_num b c.Certificate.gap;
      Buffer.add_string b
        (",\"certified\":"
        ^ if Certificate.certified c then "true}" else "false}"));
  Buffer.add_string b "}\n";
  {
    r_report = Buffer.contents b;
    r_solution = sol;
    r_health = health;
    r_healthy = dg.dg_healthy;
  }

let run_lp ?(source = Src_model) ?dump model =
  let thresholds = doctor_thresholds () in
  let eta_limit =
    match dump with
    | Some d -> d.Health.d_eta_limit
    | None -> None
  in
  let sol, health = Simplex.solve_doctor ?eta_limit ~thresholds model in
  let dump_state =
    match dump with
    | None -> None
    | Some d ->
        Some
          (Simplex.diagnose_basis ?eta_limit:d.Health.d_eta_limit ~thresholds
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
