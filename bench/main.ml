(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 4 for the index) and runs
   Bechamel micro-benchmarks of the computational kernels.
   The end-to-end benchmark with exact work counts is flexbench/.

   Usage:
     dune exec bench/main.exe                 -- all figures, quick profile
     dune exec bench/main.exe -- --fig 11     -- a single figure
     dune exec bench/main.exe -- --full       -- all 20 topologies (slow)
     dune exec bench/main.exe -- --micro      -- Bechamel kernels only
     dune exec bench/main.exe -- --jobs 4     -- domain-parallel sweeps
     dune exec bench/main.exe -- --json out.json  -- machine-readable timings
     dune exec bench/main.exe -- --chrome out.json -- Chrome/Perfetto trace

   FLEXILE_BENCH_SCENARIOS, FLEXILE_BENCH_PAIRS, FLEXILE_BENCH_EMU_RUNS
   and FLEXILE_BENCH_CVAR_SCENARIOS shrink the figure profile; each must
   be a positive integer, and --jobs nonnegative. *)

open Flexile_core
module Parallel = Flexile_util.Parallel
module Trace = Flexile_util.Trace
module Trace_export = Flexile_util.Trace_export
module Json = Flexile_util.Json

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
  (* node LPs of a Benders master (M): a binary z per (flow, scenario),
     a coverage row per flow and optimality cuts bounding the penalty
     from below; one solver state cold-solved under a fixed sequence of
     fixings, as Mip.solve does at each node *)
  let master_nodes =
    let module Lp_model = Flexile_lp.Lp_model in
    let module Prng = Flexile_util.Prng in
    let prng = Prng.of_string "micro-master" in
    let nf = 12 and nq = 20 in
    let model = Lp_model.create () in
    let penalty = Lp_model.add_var model ~ub:2. ~obj:1. () in
    let z =
      Array.init nf (fun _ ->
          Array.init nq (fun _ -> Lp_model.add_var model ~ub:1. ~obj:(-1e-7) ()))
    in
    Array.iter
      (fun row ->
        ignore
          (Lp_model.add_row model Lp_model.Ge 0.9
             (Array.to_list (Array.map (fun v -> (v, 1. /. float_of_int nq)) row))))
      z;
    for _ = 1 to 80 do
      let q = Prng.int prng nq in
      ignore
        (Lp_model.add_row model Lp_model.Ge (Prng.uniform prng (-0.5) 0.5)
           ((penalty, 1.)
           :: List.init nf (fun f -> (z.(f).(q), -.Prng.uniform prng 0. 0.2))))
    done;
    let fixings =
      Array.init 24 (fun node ->
          List.init (1 + (node mod 8)) (fun _ ->
              ( z.(Prng.int prng nf).(Prng.int prng nq),
                if Prng.bool prng 0.5 then 1. else 0. )))
    in
    let module Simplex = Flexile_lp.Simplex in
    let st = Simplex.make model in
    Test.make ~name:"master-node-lps" (Staged.stage (fun () ->
        Array.iter
          (fun fx ->
            List.iter (fun (v, x) -> Simplex.set_bounds st v ~lb:x ~ub:x) fx;
            ignore (Simplex.solve_cold st);
            List.iter (fun (v, _) -> Simplex.set_bounds st v ~lb:0. ~ub:1.) fx)
          fixings))
  in
  let open Bechamel.Toolkit in
  let tests =
    Test.make_grouped ~name:"flexile"
      [
        simplex_kernel; master_nodes; scenbest_scenario; subproblem_sweep;
        sweep_at 1; sweep_at 4;
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

(* ---- machine-readable dump (--json FILE) ---- *)

let write_json path ~profile_name ~jobs ~figures ~micro =
  let rows key =
    List.map (fun (name, x) ->
        Json.Object [ ("name", Json.String name); (key, Json.Number x) ])
  in
  Json.write_file path
    (Json.Object
       [
         ("profile", Json.String profile_name);
         ("jobs", Json.int jobs);
         ("figures", Json.Array (rows "seconds" figures));
         ("micro", Json.Array (rows "ms_per_run" micro));
         (* the --trace report: the full registry (histograms with
            their bucket lists) and the hierarchical span tree *)
         ("trace", Trace_export.report_json ());
       ]);
  Printf.printf "\nwrote timings to %s\n" path

let () =
  let fig = ref "all" in
  let full = ref false in
  let micro = ref false in
  let jobs = ref 0 in
  let json = ref "" in
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
      ( "--chrome",
        Arg.Set_string chrome,
        "write a Chrome trace-event JSON FILE of the run (Perfetto)" );
    ]
  in
  Arg.parse args (fun _ -> ()) "flexile benchmark harness";
  (* tracing is on exactly when a trace artifact is asked for: the
     --json report carries the registry, --chrome the spans *)
  if !json <> "" || !chrome <> "" then Trace.set_enabled true;
  let profile = if !full then Figures.full else Figures.quick in
  (* environment overrides for constrained machines / CI; a malformed
     or out-of-range value is an error before any figure runs, not a
     silent fall-back to the default profile *)
  let getenv_int name current =
    match Sys.getenv_opt name with
    | None -> current
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some i when i >= 1 -> i
        | _ ->
            Printf.eprintf "bench: %s=%S is not a positive integer\n" name v;
            exit 2)
  in
  let jobs = !jobs in
  if jobs < 0 then begin
    Printf.eprintf "bench: --jobs %d is negative (0 = auto)\n" jobs;
    exit 2
  end;
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
  Printf.printf "flexile bench: profile=%s jobs=%d (effective %d)\n"
    profile_name jobs
    (Parallel.resolve_jobs (Some jobs));
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
        | None ->
            Printf.eprintf "bench: unknown figure %S\n" other;
            exit 2));
    if !fig = "all" then run_micro ()
  end;
  if !json <> "" then
    write_json !json ~profile_name ~jobs ~figures:(List.rev !fig_timings)
      ~micro:!micro_rows;
  if !chrome <> "" then begin
    Json.write_file !chrome (Trace_export.chrome_json ());
    Printf.printf "wrote Chrome trace to %s\n" !chrome
  end
