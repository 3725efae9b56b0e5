(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 4 for the index), runs
   Bechamel micro-benchmarks of the computational kernels, and drives
   the perf regression gate.

   Usage:
     dune exec bench/main.exe                 -- all figures, quick profile
     dune exec bench/main.exe -- --fig 11     -- a single figure
     dune exec bench/main.exe -- --full       -- all 20 topologies (slow)
     dune exec bench/main.exe -- --micro      -- Bechamel kernels only
     dune exec bench/main.exe -- --jobs 4     -- domain-parallel sweeps
     dune exec bench/main.exe -- --json out.json  -- machine-readable timings
     dune exec bench/main.exe -- --chrome out.json -- Chrome/Perfetto trace
     dune exec bench/main.exe -- --gate --repeat 5 --baseline BENCH_PR3.json
     dune exec bench/main.exe -- --check BENCH_PR3.json --tolerance 25 *)

open Flexile_core
module Parallel = Flexile_util.Parallel
module Trace = Flexile_util.Trace
module Trace_export = Flexile_util.Trace_export
module Bench_gate = Flexile_util.Bench_gate

(* Bechamel kernels; returns [(name, ms_per_run)] for the JSON dump. *)
let micro_benchmarks ~jobs () =
  print_endline "\n==================== micro-benchmarks (Bechamel) ====================";
  let open Bechamel in
  let inst = Builder.of_name ~options:{ Builder.default_options with Builder.max_scenarios = 40 } "Sprint" in
  let scenbest_scenario =
    Test.make ~name:"scenbest-scenario-lp" (Staged.stage (fun () ->
        ignore
          (Flexile_te.Scen_lp.maxmin_losses inst ~sid:1 ~class_order:[ 0 ]
             ~merge_classes:true ())))
  in
  let subproblem_sweep =
    Test.make ~name:"flexile-offline-sprint" (Staged.stage (fun () ->
        ignore
          (Flexile_te.Flexile_offline.solve
             ~config:
               {
                 Flexile_te.Flexile_offline.default_config with
                 Flexile_te.Flexile_offline.max_iterations = 1;
                 jobs;
               }
             inst)))
  in
  (* parallel-sweep scaling: the same ScenBest sweep at 1 and 4 worker
     domains (a smaller instance so both fit the time quota) *)
  let sweep_inst =
    Builder.of_name
      ~options:
        {
          Builder.default_options with
          Builder.max_scenarios = 24;
          max_pairs = 60;
        }
      "Sprint"
  in
  let sweep_at n =
    Test.make
      ~name:(Printf.sprintf "scenbest-sweep-j%d" n)
      (Staged.stage (fun () -> ignore (Flexile_te.Scenbest.run ~jobs:n sweep_inst)))
  in
  let simplex_kernel =
    let model = Flexile_lp.Lp_model.create () in
    let vars =
      Array.init 60 (fun i ->
          Flexile_lp.Lp_model.add_var model ~ub:10. ~obj:(-.float_of_int (1 + (i mod 7))) ())
    in
    for r = 0 to 39 do
      let coeffs =
        Array.to_list
          (Array.mapi (fun j v -> (v, float_of_int (1 + ((r + j) mod 5)))) vars)
      in
      ignore (Flexile_lp.Lp_model.add_row model Flexile_lp.Lp_model.Le 50. coeffs)
    done;
    Test.make ~name:"simplex-60x40" (Staged.stage (fun () ->
        ignore (Flexile_lp.Simplex.solve model)))
  in
  let open Bechamel.Toolkit in
  let tests =
    Test.make_grouped ~name:"flexile"
      [
        simplex_kernel; scenbest_scenario; subproblem_sweep; sweep_at 1;
        sweep_at 4;
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.filter_map
    (fun (name, stats) ->
      match Analyze.OLS.estimates stats with
      | Some [ est ] ->
          let ms = est /. 1e6 in
          Printf.printf "  %-36s %12.3f ms/run\n" name ms;
          Some (name, ms)
      | _ ->
          Printf.printf "  %-36s (no estimate)\n" name;
          None)
    (List.sort compare rows)

(* ---- regression-gate phases (--gate / --baseline / --check) ----

   A fixed, deterministic, small workload exercising the whole solver
   stack, repeated --repeat times; the gate compares per-phase medians
   against a committed baseline (BENCH_PR3.json).  Two phases are
   carved out of the offline solve through the Trace timers, so a
   regression localized to the subproblem sweep or the master MIP is
   attributed, not just smeared over the parent phase. *)

let gate_phase_order =
  [
    "instance-build"; "offline-solve"; "offline-sweep"; "offline-master";
    "online-alloc"; "explain"; "scenbest-sweep"; "swan-maxmin"; "scenario-mix";
    "simplex-60x40"; "continental-mlu"; "continental-factor"; "doctor";
  ]

(* ---- continental-scale phase ----

   A 1100-node WAN min-MLU LP (~600 variables, ~2000 rows); it exists
   to gate the sparse LU core at scale.  Tunnel selection dominates
   instance construction, so the network half is built once and shared
   across gate repetitions: only the LP build + solve is timed. *)

let continental_pairs = 200

let continental_instance =
  lazy
    (let g = Flexile_net.Catalog.continental () in
     let seed = Flexile_util.Prng.of_string "flexile-bench-continental" in
     let pairs = Flexile_net.Graph.pairs g in
     Flexile_util.Prng.shuffle seed pairs;
     let pairs = Array.sub pairs 0 continental_pairs in
     Array.sort compare pairs;
     let tunnels =
       Array.map
         (fun pair ->
           Array.of_list
             (Flexile_net.Tunnels.select_single_class g ~pair ~count:3))
         pairs
     in
     let demands = Flexile_traffic.Gravity.matrix ~seed ~graph:g ~pairs in
     (g, tunnels, demands))

(* Solve the continental min-MLU LP once; returns (mu, sparse-core
   deltas) where the deltas cover exactly this solve.  [Mlu.min_mlu]
   raises unless the LP reaches optimality, so a non-converging sparse
   core fails the gate loudly instead of recording a fast garbage
   timing. *)
let continental_solve () =
  let g, tunnels, demands = Lazy.force continental_instance in
  let it0 = Trace.value_by_name "simplex.iterations" in
  let f0 = Trace.timer_seconds_by_name "simplex.factor" in
  let eta0 = Trace.value_by_name "simplex.eta_updates" in
  let ref0 = Trace.value_by_name "simplex.refactorizations" in
  let t0 = Unix.gettimeofday () in
  let mu = Flexile_te.Mlu.min_mlu ~graph:g ~tunnels ~demands in
  let seconds = Unix.gettimeofday () -. t0 in
  ( mu,
    seconds,
    Trace.timer_seconds_by_name "simplex.factor" -. f0,
    Trace.value_by_name "simplex.iterations" - it0,
    Trace.value_by_name "simplex.eta_updates" - eta0,
    Trace.value_by_name "simplex.refactorizations" - ref0 )

(* The sparse-core summary emitted under "sparse_core" in the gate
   JSON: absolute pivot throughput and eta-file growth of the last
   continental solve, plus the eta-length-at-refactorization quantiles
   accumulated over the whole run. *)
let sparse_core_json ~seconds ~factor_seconds ~iterations ~eta_updates
    ~refactorizations =
  let eta_q q =
    try
      Trace.hist_quantile_of
        (Trace.hist_snapshot_by_name "simplex.eta_len_at_refactor")
        q
    with Not_found -> 0.
  in
  Printf.sprintf
    "{\"solve_seconds\":%.6f,\"factor_seconds\":%.6f,\"iterations\":%d,\
     \"pivots_per_sec\":%.1f,\"eta_updates\":%d,\"refactorizations\":%d,\
     \"eta_len_at_refactor_p50\":%.1f,\"eta_len_at_refactor_p95\":%.1f}"
    seconds factor_seconds iterations
    (if seconds > 0. then float_of_int iterations /. seconds else 0.)
    eta_updates refactorizations (eta_q 0.5) (eta_q 0.95)

let simplex_gate_model () =
  let model = Flexile_lp.Lp_model.create () in
  let vars =
    Array.init 60 (fun i ->
        Flexile_lp.Lp_model.add_var model ~ub:10.
          ~obj:(-.float_of_int (1 + (i mod 7)))
          ())
  in
  for r = 0 to 39 do
    let coeffs =
      Array.to_list
        (Array.mapi (fun j v -> (v, float_of_int (1 + ((r + j) mod 5)))) vars)
    in
    ignore (Flexile_lp.Lp_model.add_row model Flexile_lp.Lp_model.Le 50. coeffs)
  done;
  model

let run_gate ~jobs ~repeat =
  let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  let sparse_core = ref "{}" in
  let record name s =
    let l =
      match Hashtbl.find_opt samples name with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.add samples name l;
          l
    in
    l := s :: !l
  in
  let options =
    {
      Builder.default_options with
      Builder.max_scenarios = 24;
      max_pairs = 60;
      jobs;
    }
  in
  for rep = 1 to repeat do
    Printf.printf "gate repetition %d/%d\n%!" rep repeat;
    let timed name f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      record name (Unix.gettimeofday () -. t0);
      r
    in
    let sweep0 = Trace.timer_seconds_by_name "flexile.subproblem_sweep" in
    let master0 = Trace.timer_seconds_by_name "flexile.master" in
    let inst =
      timed "instance-build" (fun () -> Builder.of_name ~options "IBM")
    in
    let offline =
      timed "offline-solve" (fun () ->
          Flexile_te.Flexile_offline.solve
            ~config:
              {
                Flexile_te.Flexile_offline.default_config with
                Flexile_te.Flexile_offline.max_iterations = 2;
                jobs;
              }
            inst)
    in
    record "offline-sweep"
      (Trace.timer_seconds_by_name "flexile.subproblem_sweep" -. sweep0);
    record "offline-master"
      (Trace.timer_seconds_by_name "flexile.master" -. master0);
    ignore
      (timed "online-alloc" (fun () ->
           Flexile_te.Flexile_online.run ~jobs inst ~offline));
    (* miss attribution end-to-end: online re-run with dual capture,
       one clairvoyant LP per (class, scenario) for the regret
       baseline, then the per-class decomposition + report rendering *)
    ignore
      (timed "explain" (fun () ->
           let promised =
             Array.init
               (Array.length inst.Flexile_te.Instance.classes)
               (fun k ->
                 Flexile_te.Metrics.perc_loss inst
                   offline.Flexile_te.Flexile_offline.best
                     .Flexile_te.Flexile_offline.losses ~cls:k ())
           in
           let inp =
             Flexile_obs.Attribution.prepare ~jobs inst ~offline ~promised ()
           in
           let rep =
             Flexile_obs.Attribution.analyze ~top:5 inp
               ~losses:(Flexile_obs.Attribution.online_losses inp)
           in
           ignore (Flexile_obs.Attribution.report_json rep)));
    ignore (timed "scenbest-sweep" (fun () -> Flexile_te.Scenbest.run ~jobs inst));
    ignore (timed "swan-maxmin" (fun () -> Flexile_te.Swan.run_maxmin ~jobs inst));
    (* mixed-regime end-to-end: SRLG + partial degradation + demand
       drift composed through Scenario_gen, then two schemes swept on
       the resulting set — gates the generator subsystem and the
       per-scenario demand-factor plumbing *)
    ignore
      (timed "scenario-mix" (fun () ->
           let mixed =
             Builder.of_name
               ~options:
                 { options with Builder.scenario_mix = "srlg,partial,drift" }
               "IBM"
           in
           ignore (Flexile_te.Scenbest.run ~jobs mixed);
           ignore (Flexile_te.Swan.run_maxmin ~jobs mixed)));
    ignore
      (timed "simplex-60x40" (fun () ->
           (* FLEXILE_GATE_HANDICAP_MS: deliberately slow this phase so
              the regression gate's failure path can be exercised
              end-to-end (see DESIGN.md §8) *)
           (match Sys.getenv_opt "FLEXILE_GATE_HANDICAP_MS" with
           | Some v -> (
               match int_of_string_opt (String.trim v) with
               | Some ms when ms > 0 -> Unix.sleepf (float_of_int ms /. 1000.)
               | _ -> ())
           | None -> ());
           let model = simplex_gate_model () in
           for _ = 1 to 20 do
             ignore (Flexile_lp.Simplex.solve model)
           done));
    (* solver-health diagnosis end-to-end: both seeded fixtures through
       solve_doctor (capture timeline + duality certificate) and report
       rendering — gates the observatory's replay path (schema v3) *)
    ignore
      (timed "doctor" (fun () ->
           List.iter
             (fun name ->
               match Flexile_lp.Doctor.run_fixture name with
               | Ok r -> ignore r.Flexile_lp.Doctor.r_report
               | Error e -> failwith ("doctor fixture " ^ name ^ ": " ^ e))
             Flexile_lp.Doctor.fixture_names));
    let mu, seconds, factor_seconds, iterations, eta_updates, refactorizations
        =
      continental_solve ()
    in
    if not (Float.is_finite mu) then failwith "continental: non-finite MLU";
    record "continental-mlu" seconds;
    record "continental-factor" factor_seconds;
    sparse_core :=
      sparse_core_json ~seconds ~factor_seconds ~iterations ~eta_updates
        ~refactorizations
  done;
  ( List.map
      (fun name ->
        let l =
          match Hashtbl.find_opt samples name with Some l -> !l | None -> []
        in
        (name, Bench_gate.median l))
      gate_phase_order,
    !sparse_core )

(* ---- machine-readable dump (--json FILE) ---- *)

let write_json path ~profile_name ~jobs ~figures ~micro =
  let oc = open_out path in
  let item fmt = Printf.ksprintf (fun s -> output_string oc s) fmt in
  let entries f xs =
    List.iteri (fun i x -> if i > 0 then item ","; f x) xs
  in
  item "{\"profile\":\"%s\",\"jobs\":%d,\"figures\":[" (Flexile_util.Json.escape profile_name)
    jobs;
  entries
    (fun (name, seconds) ->
      item "{\"name\":\"%s\",\"seconds\":%.6f}" (Flexile_util.Json.escape name) seconds)
    figures;
  item "],\"micro\":[";
  entries
    (fun (name, ms) ->
      item "{\"name\":\"%s\",\"ms_per_run\":%.6f}" (Flexile_util.Json.escape name) ms)
    micro;
  (* the trace section is the full registry — every module's counters,
     gauges, timers and span totals, plus the hierarchical span tree —
     not just the offline solver's derived summary; histograms adds
     the per-name quantile summaries with raw bucket lists (schema v2,
     see Bench_gate) *)
  item "],\"trace\":%s,\"histograms\":%s}\n"
    (Flexile_te.Flexile_offline.trace_json ())
    (Flexile_obs.Metrics_export.histograms_json ());
  close_out oc;
  Printf.printf "\nwrote timings to %s\n" path

let () =
  let fig = ref "all" in
  let full = ref false in
  let micro = ref false in
  let jobs = ref 0 in
  let json = ref "" in
  let gate = ref false in
  let repeat = ref 0 in
  let baseline_out = ref "" in
  let check_file = ref "" in
  let tolerance = ref 25. in
  let chrome = ref "" in
  let args =
    [
      ( "--fig",
        Arg.Set_string fig,
        "figure id: all|motivation|table2|5|6|9|10|11|12|13|14|15|18|scenloss|ablation"
      );
      ("--full", Arg.Set full, "use all 20 topologies (slow)");
      ("--micro", Arg.Set micro, "run only the Bechamel micro-benchmarks");
      ( "--jobs",
        Arg.Set_int jobs,
        "worker domains for scenario sweeps (0 = auto/FLEXILE_JOBS)" );
      ("--json", Arg.Set_string json, "dump figure + micro timings to FILE");
      ( "--gate",
        Arg.Set gate,
        "run the fixed regression-gate phases instead of the figures" );
      ( "--repeat",
        Arg.Set_int repeat,
        "repetitions for the gate phases (medians; default 3)" );
      ( "--baseline",
        Arg.Set_string baseline_out,
        "write the gate medians as a baseline FILE (implies --gate)" );
      ( "--check",
        Arg.Set_string check_file,
        "compare the gate medians against a baseline FILE and exit \
         non-zero on regression (implies --gate)" );
      ( "--tolerance",
        Arg.Set_float tolerance,
        "allowed regression over the baseline, percent (default 25)" );
      ( "--chrome",
        Arg.Set_string chrome,
        "write a Chrome trace-event JSON FILE of the run (Perfetto)" );
    ]
  in
  Arg.parse args (fun _ -> ()) "flexile benchmark harness";
  if !baseline_out <> "" || !check_file <> "" then gate := true;
  (* tracing is on by default under the bench harness so --json can
     report solver counters; FLEXILE_TRACE=0 vetoes it, which is how
     the no-overhead path is itself benchmarked *)
  if not (Trace.env_disabled ()) then Trace.set_enabled true;
  let profile = if !full then Figures.full else Figures.quick in
  (* environment overrides for constrained machines / CI *)
  let getenv_int name current =
    match Sys.getenv_opt name with
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> current)
    | None -> current
  in
  let jobs = if !jobs <> 0 then !jobs else getenv_int "FLEXILE_JOBS" 0 in
  let profile =
    {
      profile with
      Figures.max_scenarios =
        getenv_int "FLEXILE_BENCH_SCENARIOS" profile.Figures.max_scenarios;
      max_pairs = getenv_int "FLEXILE_BENCH_PAIRS" profile.Figures.max_pairs;
      emu_runs = getenv_int "FLEXILE_BENCH_EMU_RUNS" profile.Figures.emu_runs;
      cvar_scenarios =
        getenv_int "FLEXILE_BENCH_CVAR_SCENARIOS" profile.Figures.cvar_scenarios;
      jobs;
    }
  in
  let profile_name = if !full then "full" else "quick" in
  let effective_jobs = Parallel.resolve_jobs (Some jobs) in
  Printf.printf "flexile bench: profile=%s jobs=%d (effective %d)\n"
    (if !gate then "gate" else profile_name)
    jobs effective_jobs;
  if !gate then begin
    let repeat = if !repeat > 0 then !repeat else 3 in
    let phases, sparse_core = run_gate ~jobs ~repeat in
    Printf.printf "\ngate medians over %d repetitions (jobs=%d):\n" repeat
      effective_jobs;
    List.iter
      (fun (name, s) -> Printf.printf "  %-24s %10.4f s\n" name s)
      phases;
    let measured =
      {
        Bench_gate.profile = "gate";
        jobs = effective_jobs;
        repetitions = repeat;
        phases =
          List.map
            (fun (n, s) -> { Bench_gate.pname = n; median_seconds = s })
            phases;
      }
    in
    if !baseline_out <> "" then begin
      Bench_gate.save !baseline_out measured;
      Printf.printf "wrote baseline to %s\n" !baseline_out
    end;
    if !json <> "" then begin
      let oc = open_out !json in
      output_string oc
        (Bench_gate.to_json
           ~extra:
             [
               ("trace", Flexile_te.Flexile_offline.trace_json ());
               ("histograms", Flexile_obs.Metrics_export.histograms_json ());
               ("sparse_core", sparse_core);
               ("solver_health", Trace_export.solver_health_json ());
             ]
           measured);
      close_out oc;
      Printf.printf "wrote gate measurements to %s\n" !json
    end;
    if !chrome <> "" then begin
      Trace_export.write_file !chrome (Trace_export.chrome_json ());
      Printf.printf "wrote Chrome trace to %s\n" !chrome
    end;
    if !check_file <> "" then begin
      match Bench_gate.load !check_file with
      | Error e ->
          Printf.eprintf "cannot load baseline: %s\n" e;
          exit 2
      | Ok baseline ->
          if baseline.Bench_gate.jobs <> effective_jobs then
            Printf.printf
              "warning: baseline was recorded with jobs=%d, this run uses \
               jobs=%d\n"
              baseline.Bench_gate.jobs effective_jobs;
          let verdicts =
            Bench_gate.check ~baseline ~current:phases
              ~tolerance_pct:!tolerance ()
          in
          Bench_gate.print_verdicts ~tolerance_pct:!tolerance verdicts;
          if not (Bench_gate.passed verdicts) then exit 1
    end;
    exit 0
  end;
  let fig_timings = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    f ();
    fig_timings := (name, Unix.gettimeofday () -. t0) :: !fig_timings
  in
  let micro_rows = ref [] in
  let run_micro () = micro_rows := micro_benchmarks ~jobs () in
  let figure_table =
    [
      ("motivation", fun _p -> Figures.motivation ());
      ("table2", fun _p -> Figures.table2 ());
      ("5", Figures.fig5);
      ("6", Figures.fig6);
      ("9", Figures.fig9);
      ("10", Figures.fig10);
      ("11", Figures.fig11);
      ("12", Figures.fig12);
      ("13", Figures.fig13);
      ("14", Figures.fig14);
      ("15", Figures.fig15);
      ("18", Figures.fig18);
      ("scenloss", Figures.scenloss);
      ("ablation", Figures.ablation);
    ]
  in
  if !micro then run_micro ()
  else begin
    (match !fig with
    | "all" ->
        List.iter (fun (name, f) -> timed name (fun () -> f profile)) figure_table
    | other -> (
        match List.assoc_opt other figure_table with
        | Some f -> timed other (fun () -> f profile)
        | None -> Printf.printf "unknown figure: %s\n" other));
    if !fig = "all" then run_micro ()
  end;
  if !json <> "" then
    write_json !json ~profile_name ~jobs ~figures:(List.rev !fig_timings)
      ~micro:!micro_rows;
  if !chrome <> "" then begin
    Trace_export.write_file !chrome (Trace_export.chrome_json ());
    Printf.printf "wrote Chrome trace to %s\n" !chrome
  end
