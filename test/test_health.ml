(* Tests of the solver health observatory (Flexile_lp.Health /
   Doctor): pathological-numerics fixtures must trip the condition and
   stall detectors, a healthy workload must stay silent, dumps must
   round-trip byte-exactly, and doctor reports must be deterministic. *)

open Flexile_lp
module Prng = Flexile_util.Prng
module Trace = Flexile_util.Trace
module Json = Flexile_util.Json

(* Random bounded LP (never unbounded): the healthy workload. *)
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

(* ---- eta limit 1 walk: a sample per pivot epoch ---- *)

(* With the eta file capped at one update, every pivot forces a
   refactorization, so the capture timeline densely samples the solve;
   on a healthy LP every sample must be clean. *)
let test_eta_limit_walk () =
  let prng = Prng.of_string "health-eta-walk" in
  for trial = 1 to 10 do
    let m = random_lp prng ~nv:12 ~nr:10 in
    let sol, h =
      Simplex.solve_doctor ~eta_limit:1 m
    in
    let samples = Health.samples h in
    (match sol.Simplex.status with
    | Simplex.Optimal when sol.Simplex.iterations > 2 ->
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: one sample per refactorization" trial)
          true
          (List.length samples >= sol.Simplex.iterations / 2)
    | _ -> ());
    List.iter
      (fun (s : Health.sample) ->
        if s.Health.s_primal_res > 1e-6 || s.Health.s_dual_res > 1e-6 then
          Alcotest.failf "trial %d: residual drift (%.3g, %.3g)" trial
            s.Health.s_primal_res s.Health.s_dual_res;
        (* Hager estimates a lower bound on ||B^-1||_1, so the product
           can dip a hair under the true kappa >= 1 *)
        if not (Float.is_finite s.Health.s_cond1) || s.Health.s_cond1 <= 0.
        then
          Alcotest.failf "trial %d: bad condition estimate %.3g" trial
            s.Health.s_cond1;
        Alcotest.(check (list string))
          (Printf.sprintf "trial %d: no trips" trial)
          [] s.Health.s_tripped)
      samples;
    Alcotest.(check int)
      (Printf.sprintf "trial %d: no stalls" trial)
      0
      (List.length (Health.stalls h))
  done

(* the stall timeline, like samples and loop notes, is kept only
   under capture *)
let test_stalls_need_capture () =
  let st = Health.make 4 in
  Health.note_stall st ~phase:2 ~iteration:7 ~run:120;
  Alcotest.(check int) "no capture, no timeline" 0
    (List.length (Health.stalls st));
  Health.set_capture st true;
  Health.note_stall st ~phase:2 ~iteration:9 ~run:121;
  match Health.stalls st with
  | [ s ] ->
      Alcotest.(check (list int)) "captured stall" [ 2; 9; 121 ]
        [ s.Health.st_phase; s.Health.st_iteration; s.Health.st_run ]
  | l -> Alcotest.failf "expected 1 captured stall, got %d" (List.length l)

(* ---- production sampling stride ---- *)

(* capture mode samples every opportunity; production samples every
   16th opportunity of a state, at a phase hashed from the basis of
   its first: calls on one state never move another's stride, and
   later bases do not move it either *)
let test_sampling_stride () =
  let basic k = Array.init 4 (fun i -> (7 * k) + i) in
  let cap = Health.make 4 in
  Health.set_capture cap true;
  for k = 1 to 40 do
    Alcotest.(check bool)
      "capture always due" true
      (Health.sample_due cap ~basic:(basic k))
  done;
  (* the opportunities among the first [n] at which a fresh state
     samples, given its first basis *)
  let alone ~first n =
    let st = Health.make 4 in
    List.filter
      (fun k ->
        Health.sample_due st ~basic:(basic (if k = 0 then first else 1000 + k)))
      (List.init n Fun.id)
  in
  let a = alone ~first:1 96 in
  (match a with
  | p :: _ when p < 16 ->
      Alcotest.(check (list int))
        "every 16th opportunity from a phase below 16"
        (List.init 6 (fun i -> p + (16 * i)))
        a
  | _ -> Alcotest.fail "no sample among the first 16 opportunities");
  let sa = Health.make 4 and sb = Health.make 4 in
  let hits_a = ref [] and hits_b = ref [] in
  for i = 0 to 95 do
    if Health.sample_due sa ~basic:(basic (if i = 0 then 1 else 2000 + i))
    then hits_a := i :: !hits_a;
    if i mod 3 = 0
       && Health.sample_due sb ~basic:(basic (if i = 0 then 2 else 3000 + i))
    then hits_b := (i / 3) :: !hits_b
  done;
  Alcotest.(check (list int))
    "a's samples move with neither b nor a's later bases" a
    (List.rev !hits_a);
  Alcotest.(check (list int))
    "b's samples move with neither a nor b's later bases" (alone ~first:2 32)
    (List.rev !hits_b);
  (* short-lived states: one opportunity each, over 1,600 distinct
     first bases, sample about one in 16 (100 expected) *)
  let firsts = ref 0 in
  for k = 0 to 1599 do
    if Health.sample_due (Health.make 4) ~basic:(basic k) then incr firsts
  done;
  Alcotest.(check bool)
    (Printf.sprintf "one-opportunity states sampled %d of 1600" !firsts)
    true
    (!firsts >= 60 && !firsts <= 140)

(* ---- health metrics do not depend on the job count ---- *)

(* The health.* counters and histograms (count, extremes, buckets) of
   a traced offline solve, by name. *)
let health_metrics inst ~jobs =
  Trace.reset ();
  let config =
    {
      Flexile_te.Flexile_offline.default_config with
      Flexile_te.Flexile_offline.max_iterations = 2;
      jobs;
    }
  in
  ignore (Flexile_te.Flexile_offline.solve ~config inst);
  List.filter_map
    (fun (name, kind) ->
      if not (String.starts_with ~prefix:"health." name) then None
      else
        match (kind : Trace.metric_kind) with
        | Trace.Counter -> Some (name, Printf.sprintf "%d" (Trace.value_by_name name))
        | Trace.Hist ->
            let h = Trace.hist_snapshot_by_name name in
            Some
              ( name,
                Printf.sprintf "count %d min %h max %h buckets %s"
                  h.Trace.hist_count h.Trace.hist_min h.Trace.hist_max
                  (String.concat ","
                     (List.map
                        (fun (ub, c) -> Printf.sprintf "%h:%d" ub c)
                        h.Trace.hist_buckets)) )
        | _ -> None)
    (Trace.registry ())

let test_health_across_jobs () =
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) @@ fun () ->
  let inst =
    Flexile_core.Builder.of_name
      ~options:
        {
          Flexile_core.Builder.default_options with
          Flexile_core.Builder.max_scenarios = 24;
          max_pairs = 40;
        }
      "IBM"
  in
  let one = health_metrics inst ~jobs:1 in
  Alcotest.(check bool) "samples taken" true
    (List.assoc "health.samples" one <> "0");
  List.iter
    (fun jobs ->
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "jobs %d = jobs 1" jobs)
        one (health_metrics inst ~jobs))
    [ 2; 4 ]

(* ---- the crafted near-singular fixture fires every detector ---- *)

let test_near_singular_fixture () =
  match Doctor.run_fixture "near-singular" with
  | Error e -> Alcotest.failf "fixture: %s" e
  | Ok r ->
      Alcotest.(check bool) "diagnosed unhealthy" false r.Doctor.r_healthy;
      Alcotest.(check string)
        "solves to the interior optimum" "optimal"
        (match r.Doctor.r_solution.Simplex.status with
        | Simplex.Optimal -> "optimal"
        | _ -> "other");
      Alcotest.(check bool)
        "objective -0.5 (x1 basic at 0.5)" true
        (Float.abs (r.Doctor.r_solution.Simplex.obj +. 0.5) < 1e-6);
      let samples = Health.samples r.Doctor.r_health in
      Alcotest.(check bool)
        "condition estimate trips the 1e10 threshold" true
        (List.exists
           (fun (s : Health.sample) -> List.mem "cond" s.Health.s_tripped)
           samples);
      Alcotest.(check bool)
        "condition estimate sees ~4e10" true
        (List.exists
           (fun (s : Health.sample) -> s.Health.s_cond1 > 1e10)
           samples);
      Alcotest.(check bool)
        "near-singular row detected" true
        (List.exists
           (fun (s : Health.sample) ->
             List.exists (fun (row, _) -> row = 1) s.Health.s_near_singular)
           samples);
      Alcotest.(check bool)
        "stall detector fires" true
        (Health.stalls r.Doctor.r_health <> []);
      (* the rendered diagnosis names the phase and the rows *)
      let mem needle =
        let h = Json.encode r.Doctor.r_report in
        let n = String.length needle and l = String.length h in
        let rec go i =
          i + n <= l && (String.equal (String.sub h i n) needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        "report names the stalling phase" true
        (mem "\"stalling_phase\":\"phase2\"");
      Alcotest.(check bool) "report names the row" true (mem "\"ns_r1\"");
      Alcotest.(check bool)
        "report lists the cond trip" true
        (mem "\"thresholds_tripped\":[\"cond\"]");
      Alcotest.(check bool)
        "report carries a passing certificate" true
        (mem "\"certified\":true}")

(* the degenerate chain stalls under the doctor's lowered limit but is
   numerically sound: no trips, no near-singular rows *)
let test_degenerate_fixture () =
  match Doctor.run_fixture "degenerate" with
  | Error e -> Alcotest.failf "fixture: %s" e
  | Ok r ->
      Alcotest.(check bool)
        "stalls" true
        (Health.stalls r.Doctor.r_health <> []);
      List.iter
        (fun (s : Health.sample) ->
          Alcotest.(check (list string)) "no trips" [] s.Health.s_tripped;
          Alcotest.(check int) "no near-singular rows" 0
            (List.length s.Health.s_near_singular))
        (Health.samples r.Doctor.r_health)

(* ---- healthy suite stays silent under production thresholds ---- *)

let test_healthy_suite_silent () =
  let prng = Prng.of_string "health-silent" in
  for trial = 1 to 25 do
    let m = random_lp prng ~nv:(4 + Prng.int prng 10) ~nr:(3 + Prng.int prng 8) in
    let _, h = Simplex.solve_doctor m in
    List.iter
      (fun (s : Health.sample) ->
        if s.Health.s_tripped <> [] then
          Alcotest.failf "trial %d: unexpected trip %s" trial
            (String.concat "," s.Health.s_tripped))
      (Health.samples h);
    Alcotest.(check int)
      (Printf.sprintf "trial %d: no stalls" trial)
      0
      (List.length (Health.stalls h))
  done

(* ---- dump round trip: bit-exact floats, byte-stable serialization ---- *)

(* [f path] with [contents] written to a fresh temporary file *)
let with_file contents f =
  let path = Filename.temp_file "flexile-health" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let with_dump_dir f =
  let dir = Filename.temp_file "flexile-dumps" "" in
  Sys.remove dir;
  Unix.putenv "FLEXILE_HEALTH_DUMP" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "FLEXILE_HEALTH_DUMP" "";
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* [d] as [Health.write_dump] writes it *)
let dump_text d =
  with_dump_dir @@ fun _ ->
  match Health.write_dump d with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> Alcotest.fail "dumping is not enabled"

(* every float of a dumped model survives as a hex literal: here the
   objective coefficients of a row-free model *)
let test_hex_float_round_trip () =
  let bits = Int64.bits_of_float in
  let values =
    [
      0.; -0.; 1.; -1.5; 0.1; 1. /. 3.; 1e-300; -1.7e308; 4.5e-320;
      (* subnormal *) infinity; neg_infinity; Float.nan; 1. +. 1e-10;
    ]
  in
  let model = Lp_model.create ~name:"hex-round-trip" () in
  List.iter (fun obj -> ignore (Lp_model.add_var model ~obj ())) values;
  let dump =
    {
      Health.d_reasons = [];
      d_phase = 1;
      d_iteration = 0;
      d_eta_limit = None;
      d_model = model;
      d_basis = [||];
      d_vstat = Array.make (List.length values) 0;
    }
  in
  with_file (dump_text dump) @@ fun path ->
  match Health.read_dump path with
  | Error e -> Alcotest.failf "read_dump: %s" e
  | Ok d ->
      List.iteri
        (fun j v ->
          let v' = Lp_model.obj_coef d.Health.d_model j in
          if Float.is_nan v then
            Alcotest.(check bool) "nan round trip" true (Float.is_nan v')
          else
            Alcotest.(check int64)
              (Printf.sprintf "bits of %h" v)
              (bits v) (bits v'))
        values

let fixture_dump () =
  let model = Option.get (Doctor.fixture "near-singular") in
  (* one status per column: the variables, a slack and an artificial
     per row *)
  let n = Lp_model.nvars model + (2 * Lp_model.nrows model) in
  {
    Health.d_reasons = [ "cond"; "lu_growth" ];
    d_phase = 2;
    d_iteration = 17;
    d_eta_limit = Some 3;
    d_model = model;
    d_basis = Array.init (Lp_model.nrows model) (fun i -> i);
    d_vstat = Array.make n 0;
  }

let test_dump_round_trip () =
  let dump = fixture_dump () in
  let s = dump_text dump in
  with_file s @@ fun path ->
  match Health.read_dump path with
  | Error e -> Alcotest.failf "read_dump: %s" e
  | Ok d ->
      Alcotest.(check (list string))
        "reasons" dump.Health.d_reasons d.Health.d_reasons;
      Alcotest.(check int) "phase" 2 d.Health.d_phase;
      Alcotest.(check int) "iteration" 17 d.Health.d_iteration;
      Alcotest.(check (option int)) "eta limit" (Some 3) d.Health.d_eta_limit;
      Alcotest.(check (array int)) "basis" dump.Health.d_basis d.Health.d_basis;
      Alcotest.(check (array int)) "vstat" dump.Health.d_vstat d.Health.d_vstat;
      (* the dump, model included, re-serializes to the identical
         bytes: every float survives through the hex literals *)
      Alcotest.(check string) "dump re-serializes byte-identically" s
        (dump_text d)

(* ---- doctor --from-dump: a bad dump is an Error, never an exception ---- *)

(* the fixture dump with its "basis" member replaced by [basis] *)
let dump_with_basis basis =
  match Json.parse (dump_text (fixture_dump ())) with
  | Ok (Json.Object fields) ->
      Json.encode
        (Json.Object
           (List.map
              (fun (k, v) -> if k = "basis" then (k, Json.Array basis) else (k, v))
              fields))
  | _ -> Alcotest.fail "dump is not an object"

let expect_dump_error ~mentions path =
  match Doctor.run_dump path with
  | Ok _ -> Alcotest.fail "a bad dump was diagnosed"
  | Error e ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      if not (contains e mentions) then
        Alcotest.failf "error %S does not mention %S" e mentions

let fixture_rows () =
  Lp_model.nrows (Option.get (Doctor.fixture "near-singular"))

let test_dump_missing_file () =
  let path = Filename.temp_file "flexile-health" ".json" in
  Sys.remove path;
  expect_dump_error ~mentions:"health dump: " path

let test_dump_basis_out_of_range () =
  with_file
    (dump_with_basis (List.init (fixture_rows ()) (fun _ -> Json.int 99999)))
  @@ expect_dump_error ~mentions:"basis entry out of range"

let test_dump_basis_too_short () =
  with_file (dump_with_basis [ Json.int 0 ])
  @@ expect_dump_error ~mentions:"basis has 1 entries"

let test_dump_basis_not_an_int () =
  with_file
    (dump_with_basis (List.init (fixture_rows ()) (fun _ -> Json.Number 1e300)))
  @@ expect_dump_error ~mentions:"field basis"

(* Seeded byte mutations of a valid dump: read_dump answers Ok or
   Error, never an exception. *)
let prop_mutated_dump_reads =
  let s = dump_text (fixture_dump ()) in
  QCheck.Test.make ~name:"mutated dumps read as Ok or Error" ~count:300
    (QCheck.make (Fuzz.mutation_gen s))
    (fun bytes ->
      with_file bytes (fun path ->
          match Health.read_dump path with Ok _ | Error _ -> true))

(* ---- threshold trip writes a dump; diagnose-basis measures it ---- *)

(* the auto-dump of a trip records the eta limit of the state that
   tripped, so a replay keeps its refactorization cadence *)
let test_auto_dump_eta_limit () =
  with_dump_dir @@ fun dir ->
  let model = Option.get (Doctor.fixture "near-singular") in
  ignore
    (Simplex.solve_doctor ~eta_limit:1 model);
  match
    Health.read_dump
      (Filename.concat dir "health-dump-near-singular-fixture.json")
  with
  | Error e -> Alcotest.failf "read_dump: %s" e
  | Ok d ->
      Alcotest.(check (option int)) "eta limit" (Some 1) d.Health.d_eta_limit

let test_auto_dump_and_patch_path () =
  with_dump_dir @@ fun dir ->
  (match Doctor.run_fixture "near-singular" with
  | Error e -> Alcotest.failf "fixture: %s" e
  | Ok _ -> ());
  let path =
    Filename.concat dir "health-dump-near-singular-fixture.json"
  in
  Alcotest.(check bool) "trip wrote the snapshot" true (Sys.file_exists path);
  match Health.read_dump path with
  | Error e -> Alcotest.failf "read_dump: %s" e
  | Ok d ->
      Alcotest.(check bool)
        "dump records the cond trip" true
        (List.mem "cond" d.Health.d_reasons);
      (* measuring the captured basis in isolation sees the same
         near-singular row, and nothing is patched *)
      let h =
        Simplex.diagnose_basis ?eta_limit:d.Health.d_eta_limit
          ~phase:d.Health.d_phase ~iteration:d.Health.d_iteration
          d.Health.d_model ~bas:d.Health.d_basis ~vstat:d.Health.d_vstat
      in
      (match Health.samples h with
      | [ s ] ->
          Alcotest.(check (list (pair int int))) "no patches" []
            s.Health.s_patched;
          Alcotest.(check bool)
            "near-singular row in dumped basis" true
            (List.exists (fun (row, _) -> row = 1) s.Health.s_near_singular)
      | l -> Alcotest.failf "expected one sample, got %d" (List.length l));
      (* corrupt the basis with a duplicate column: the factorization
         must take the singular-patch path and the sample must say so *)
      let bas = Array.copy d.Health.d_basis in
      bas.(0) <- bas.(1);
      let h2 =
        Simplex.diagnose_basis d.Health.d_model ~bas ~vstat:d.Health.d_vstat
      in
      (match Health.samples h2 with
      | [ s ] ->
          Alcotest.(check bool)
            "duplicate column is patched" true
            (s.Health.s_patched <> [])
      | l -> Alcotest.failf "expected one sample, got %d" (List.length l))

(* A trip on a copied state dumps the LP the state holds after its
   setter calls, not the build-time model it was made from: the dumped
   bound, cost, RHS and coefficient are the ones set, and a replay of
   the dump reaches the state's status and objective. *)
let test_copy_dump_after_setters () =
  with_dump_dir @@ fun dir ->
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let model = Option.get (Doctor.fixture "near-singular") in
  let path = Filename.concat dir "health-dump-near-singular-fixture.json" in
  (* eta limit 1: every pivot refactors, so the near-singular basis is
     sampled often enough to trip under the production stride *)
  let st = Simplex.make ~eta_limit:1 model in
  ignore (Simplex.solve_warm st);
  if Sys.file_exists path then Sys.remove path;
  let copy = Simplex.copy st in
  (* the chain: y_i is variable i + 2, y_0 <= rhs on row 2 and
     y_i - y_(i-1) <= 0 on row i + 2 *)
  let y3 = 5 and y1 = 3 and r0 = 2 and r1 = 3 in
  Simplex.set_bounds copy y3 ~lb:0. ~ub:7.;
  Simplex.set_obj copy y3 0.25;
  Simplex.set_rhs copy r0 1.;
  Simplex.set_coef copy r1 y1 2.;
  let sol = Simplex.solve_cold copy in
  Alcotest.(check bool) "the copy's solve tripped and dumped" true (Sys.file_exists path);
  match Health.read_dump path with
  | Error e -> Alcotest.failf "read_dump: %s" e
  | Ok d -> (
      let dm = d.Health.d_model in
      let bits = Int64.bits_of_float in
      let same what a b = Alcotest.(check int64) what (bits a) (bits b) in
      same "dumped ub" 7. (Lp_model.ub dm y3);
      same "dumped cost" 0.25 (Lp_model.obj_coef dm y3);
      same "dumped rhs" 1. (Lp_model.rhs dm r0);
      same "dumped coefficient" 2. (List.assoc y1 (Lp_model.row_coeffs dm r1));
      same "build-time model unchanged" 10. (Lp_model.ub model y3);
      match Doctor.run_dump path with
      | Error e -> Alcotest.failf "run_dump: %s" e
      | Ok r ->
          let replay = r.Doctor.r_solution in
          Alcotest.(check bool) "replay status" true (replay.Simplex.status = sol.Simplex.status);
          if Float.abs (replay.Simplex.obj -. sol.Simplex.obj) > 1e-9 then
            Alcotest.failf "replay objective %.17g, state %.17g" replay.Simplex.obj
              sol.Simplex.obj)

(* ---- doctor reports are deterministic ---- *)

let test_doctor_deterministic () =
  let report name =
    match Doctor.run_fixture name with
    | Error e -> Alcotest.failf "fixture: %s" e
    | Ok r -> Json.encode r.Doctor.r_report
  in
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " report byte-stable")
        (report name) (report name))
    [ "near-singular"; "degenerate" ];
  with_dump_dir @@ fun dir ->
  ignore (report "near-singular");
  let path = Filename.concat dir "health-dump-near-singular-fixture.json" in
  let from_dump () =
    match Doctor.run_dump path with
    | Error e -> Alcotest.failf "run_dump: %s" e
    | Ok r -> Json.encode r.Doctor.r_report
  in
  Alcotest.(check string) "dump replay byte-stable" (from_dump ()) (from_dump ())

(* ---- solver_health projection ---- *)

let test_solver_health_json () =
  Trace.set_enabled true;
  Trace.reset ();
  (* generate some health traffic *)
  (match Doctor.run_fixture "near-singular" with
  | Error e -> Alcotest.failf "fixture: %s" e
  | Ok _ -> ());
  let s =
    match
      Flexile_util.Json.member "solver_health"
        (Flexile_util.Trace_export.report_json ())
    with
    | Some section -> Flexile_util.Json.encode section
    | None -> Alcotest.fail "report without a solver_health section"
  in
  match Flexile_util.Json.parse s with
  | Error e -> Alcotest.failf "solver_health not JSON: %s" e
  | Ok j ->
      let module Json = Flexile_util.Json in
      Alcotest.(check (option string))
        "schema" (Some "flexile-solver-health")
        (Option.bind (Json.member "schema" j) Json.to_string);
      let counters = Json.member "counters" j in
      let counter name =
        Option.bind counters (fun c ->
            Option.bind (Json.member name c) Json.to_int)
      in
      (match counter "health.samples" with
      | Some n when n > 0 -> ()
      | v ->
          Alcotest.failf "health.samples missing or zero (%s)"
            (match v with Some n -> string_of_int n | None -> "absent"));
      (match counter "health.threshold_trips" with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.failf "health.threshold_trips missing or zero");
      match
        Option.bind (Json.member "histograms" j) (Json.member "health.cond1_log10")
      with
      | Some _ -> ()
      | None -> Alcotest.fail "health.cond1_log10 histogram absent"

let () =
  Alcotest.run "flexile_health"
    [
      ( "observatory",
        [
          Alcotest.test_case "eta-limit-1 walk samples every epoch" `Quick
            test_eta_limit_walk;
          Alcotest.test_case "production sampling stride" `Quick
            test_sampling_stride;
          Alcotest.test_case "stalls kept only under capture" `Quick
            test_stalls_need_capture;
          Alcotest.test_case "health equal at jobs 1, 2, 4" `Quick
            test_health_across_jobs;
          Alcotest.test_case "near-singular fixture fires cond+stall+rows"
            `Quick test_near_singular_fixture;
          Alcotest.test_case "degenerate fixture stalls without trips" `Quick
            test_degenerate_fixture;
          Alcotest.test_case "healthy suite is silent" `Quick
            test_healthy_suite_silent;
        ] );
      ( "dumps",
        [
          Alcotest.test_case "hex float round trip" `Quick
            test_hex_float_round_trip;
          Alcotest.test_case "dump serialization round trip" `Quick
            test_dump_round_trip;
          Alcotest.test_case "trip dump records the eta limit" `Quick
            test_auto_dump_eta_limit;
          Alcotest.test_case "trip auto-dumps; patch path reported" `Quick
            test_auto_dump_and_patch_path;
          Alcotest.test_case "copied state dumps its set LP" `Quick
            test_copy_dump_after_setters;
          Alcotest.test_case "missing dump file is an error" `Quick
            test_dump_missing_file;
          Alcotest.test_case "basis entry out of range is an error" `Quick
            test_dump_basis_out_of_range;
          Alcotest.test_case "short basis is an error" `Quick
            test_dump_basis_too_short;
          Alcotest.test_case "non-integral basis entry is an error" `Quick
            test_dump_basis_not_an_int;
          Fuzz.to_alcotest prop_mutated_dump_reads;
        ] );
      ( "doctor",
        [
          Alcotest.test_case "reports deterministic" `Quick
            test_doctor_deterministic;
          Alcotest.test_case "solver_health projection" `Quick
            test_solver_health_json;
        ] );
    ]
