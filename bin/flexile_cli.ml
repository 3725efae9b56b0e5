(* Command-line driver: solve a topology with any scheme, compare
   schemes, inspect the catalog, search the max sustainable scale, or
   run the discretization emulator. *)

open Cmdliner
module Instance = Flexile_te.Instance
module Metrics = Flexile_te.Metrics
module Trace = Flexile_util.Trace
module Trace_export = Flexile_util.Trace_export
module Json = Flexile_util.Json

(* --trace OUT.json: enable the observability layer for this run and
   dump the merged report when the command finishes *)
let trace_arg =
  let doc =
    "Enable solver tracing and write the structured JSON report (the \
     full metric registry — every module's counters, gauges and \
     timers — plus the hierarchical span tree) to $(docv) when the \
     command completes."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* --trace-chrome OUT.json: same instrumentation, exported as Chrome
   trace events for Perfetto / chrome://tracing *)
let chrome_arg =
  let doc =
    "Enable solver tracing and write a Chrome trace-event JSON file to \
     $(docv) (load it in Perfetto or chrome://tracing: one track per \
     domain, nested spans for the offline iterations, per-scenario \
     subproblems and master solves, plus counter samples)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-chrome" ] ~docv:"FILE" ~doc)

let with_trace out chrome f =
  if out <> None || chrome <> None then Trace.set_enabled true;
  f ();
  Option.iter
    (fun path ->
      Json.write_file path (Trace_export.report_json ());
      Printf.printf "wrote trace to %s\n" path)
    out;
  Option.iter
    (fun path ->
      Json.write_file path (Trace_export.chrome_json ());
      Printf.printf "wrote Chrome trace to %s (load in Perfetto)\n" path)
    chrome

let verbose_term =
  let doc = "Enable informational logging." in
  let flag = Arg.(value & flag & info [ "v"; "verbose" ] ~doc) in
  let setup v =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (if v then Some Logs.Info else Some Logs.Warning)
  in
  Term.(const setup $ flag)

let topology_arg =
  let doc = "Topology name from Table 2 (e.g. IBM, Sprint, B4)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TOPOLOGY" ~doc)

let two_class_arg =
  let doc = "Use the two-traffic-class setup (high + low priority)." in
  Arg.(value & flag & info [ "two-class" ] ~doc)

(* A scenario mix is checked where the option is parsed, so a bad
   regime is a usage error naming the token instead of an exception
   after the command has started. *)
let parse_mix spec =
  match Flexile_core.Builder.parse_mix spec with
  | Ok _ -> Ok spec
  | Error e -> Error (`Msg e)

let mix_conv = Arg.conv (parse_mix, Format.pp_print_string)

(* --scenarios: an enumeration cap, or a mix enumerated with the
   default cap of 150 *)
let scenarios_conv =
  let parse spec =
    match int_of_string_opt (String.trim spec) with
    | Some n when n > 0 -> Ok (n, None)
    | Some n -> Error (`Msg (Printf.sprintf "scenario count %d must be positive" n))
    | None -> Result.map (fun mix -> (150, Some mix)) (parse_mix spec)
  in
  let print ppf (n, mix) =
    match mix with
    | Some m -> Format.pp_print_string ppf m
    | None -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

let scenarios_arg =
  let doc =
    "Maximum number of failure scenarios to enumerate ($(docv) = count), or \
     a comma-separated scenario mix (e.g. srlg,partial,drift) enumerated \
     with the default cap.  Regimes: independent, srlg, partial, drift, \
     diurnal, maintenance."
  in
  Arg.(value & opt scenarios_conv (150, None) & info [ "scenarios" ] ~docv:"N|MIX" ~doc)

let mix_arg =
  let doc =
    "Scenario regime mix to compose, e.g. srlg,partial,drift (default: \
     independent Weibull link failures).  Equivalent to passing the mix \
     directly to --scenarios, but keeps the count configurable."
  in
  Arg.(value & opt (some mix_conv) None & info [ "mix" ] ~docv:"MIX" ~doc)

(* A number outside its option's range is a usage error naming the
   value, raised where the option is parsed, before any work starts. *)
let bounded conv ~what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s must be %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = bounded Arg.int ~what:"positive" (fun n -> n > 0)
let nonnegative_int = bounded Arg.int ~what:"nonnegative" (fun n -> n >= 0)
let nonnegative_float = bounded Arg.float ~what:"nonnegative" (fun x -> x >= 0.)

let pairs_arg =
  let doc = "Maximum number of site pairs (sampled deterministically)." in
  Arg.(value & opt positive_int 240 & info [ "max-pairs" ] ~doc)

let iterations_arg =
  Arg.(value & opt positive_int 5 & info [ "iterations" ] ~doc:"Offline decomposition iterations.")

let offline_config ?gamma ~iterations ~jobs () =
  {
    Flexile_te.Flexile_offline.default_config with
    Flexile_te.Flexile_offline.max_iterations = iterations;
    gamma;
    jobs;
  }

(* The offline plan that monitor and explain hold the online phase to,
   and its per-class PercLoss: the promise. *)
let offline_promise inst ~iterations ~jobs =
  let off =
    Flexile_te.Flexile_offline.solve ~config:(offline_config ~iterations ~jobs ()) inst
  in
  let losses = off.Flexile_te.Flexile_offline.best.Flexile_te.Flexile_offline.losses in
  (off, Array.init (Array.length inst.Instance.classes) (fun k -> Metrics.perc_loss inst losses ~cls:k))

(* A malformed FLEXILE_JOBS is a usage error naming the value, before
   any work starts, whatever --jobs says. *)
let jobs_arg =
  let doc =
    "Worker domains for the per-scenario sweeps (0 = auto: FLEXILE_JOBS or \
     one per core).  Results are identical for every value."
  in
  let check jobs =
    match Flexile_util.Parallel.resolve_jobs None with
    | (_ : int) -> Ok jobs
    | exception Invalid_argument e -> Error e
  in
  Term.term_result' ~usage:true
    Term.(const check $ Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc))

(* A scheme is parsed where the option is, so a typo is a usage error
   listing the names. *)
let scheme_conv =
  Arg.enum
    (List.map
       (fun s -> (Flexile_core.Schemes.name s, s))
       Flexile_core.Schemes.all)

(* an explicit --mix wins over a mix passed via --scenarios *)
let build_instance ?(two = false) ?(scenarios = (150, None)) ?mix
    ?(cap_scenarios = max_int) ?(max_pairs = 240) name =
  let count, spec_mix = scenarios in
  let scenario_mix =
    match (mix, spec_mix) with
    | Some m, _ | None, Some m -> m
    | None, None -> "independent"
  in
  let options =
    {
      Flexile_core.Builder.default_options with
      Flexile_core.Builder.max_scenarios = min count cap_scenarios;
      max_pairs;
      scenario_mix;
    }
  in
  Flexile_core.Builder.of_name ~options ~two_classes:two name

let print_instance inst =
  Printf.printf "topology %s: %d nodes, %d links, %d pairs, %d flows, %d scenarios (%.5f%% mass)\n"
    inst.Instance.graph.Flexile_net.Graph.name
    inst.Instance.graph.Flexile_net.Graph.n
    (Flexile_net.Graph.nedges inst.Instance.graph)
    (Array.length inst.Instance.pairs)
    (Instance.nflows inst) (Instance.nscenarios inst)
    (100. *. Flexile_failure.Failure_model.coverage inst.Instance.scenarios);
  Array.iteri
    (fun k (c : Instance.cls) ->
      Printf.printf "  class %d (%s): beta=%.6f weight=%g\n" k c.Instance.cname
        c.Instance.beta c.Instance.weight)
    inst.Instance.classes

let report inst name losses =
  Array.iteri
    (fun k (c : Instance.cls) ->
      Printf.printf "%-16s class %-5s PercLoss(beta=%.4f) = %6.2f%%\n" name
        c.Instance.cname c.Instance.beta
        (100. *. Metrics.perc_loss inst losses ~cls:k))
    inst.Instance.classes

(* ---- solve ---- *)

let solve_cmd =
  let gamma =
    Arg.(value & opt (some nonnegative_float) None & info [ "gamma" ]
           ~doc:"Bound non-critical flows' loss to gamma + per-scenario optimum (section 4.4).")
  in
  let run () name two scenarios mix max_pairs iterations gamma jobs trace
      chrome =
    with_trace trace chrome @@ fun () ->
    let inst = build_instance ~two ~scenarios ?mix ~max_pairs name in
    print_instance inst;
    let r =
      Flexile_te.Flexile_scheme.run ~config:(offline_config ?gamma ~iterations ~jobs ()) inst
    in
    report inst "Flexile" r.Flexile_te.Flexile_scheme.losses;
    let off = r.Flexile_te.Flexile_scheme.offline in
    Printf.printf
      "offline: %d iterations, %d subproblem solves, %.2fs wall, best penalty %.4f\n"
      (List.length off.Flexile_te.Flexile_offline.iterates)
      off.Flexile_te.Flexile_offline.subproblems_solved
      off.Flexile_te.Flexile_offline.wall_time
      off.Flexile_te.Flexile_offline.best.Flexile_te.Flexile_offline.penalty
  in
  let term =
    Term.(const run $ verbose_term $ topology_arg $ two_class_arg
          $ scenarios_arg $ mix_arg $ pairs_arg $ iterations_arg $ gamma
          $ jobs_arg $ trace_arg $ chrome_arg)
  in
  Cmd.v (Cmd.info "solve" ~doc:"Run Flexile (offline + online) on a topology.") term

(* ---- compare ---- *)

let compare_cmd =
  let schemes_arg =
    let doc = "Comma-separated schemes (default: Flexile,SMORE,SWAN-Maxmin)." in
    Arg.(
      value
      & opt (list scheme_conv)
          Flexile_core.Schemes.[ Flexile; Smore; Swan_maxmin ]
      & info [ "schemes" ] ~doc)
  in
  let run () name two scenarios mix max_pairs schemes jobs trace chrome =
    with_trace trace chrome @@ fun () ->
    let inst = build_instance ~two ~scenarios ?mix ~max_pairs name in
    print_instance inst;
    List.iter
      (fun scheme ->
        try
          let losses = Flexile_core.Schemes.run ~jobs scheme inst in
          report inst (Flexile_core.Schemes.name scheme) losses
        with Flexile_core.Schemes.Timeout _ ->
          Printf.printf "%-16s TLE (size guard)\n"
            (Flexile_core.Schemes.name scheme))
      schemes
  in
  let term =
    Term.(const run $ verbose_term $ topology_arg $ two_class_arg
          $ scenarios_arg $ mix_arg $ pairs_arg $ schemes_arg $ jobs_arg
          $ trace_arg $ chrome_arg)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare TE schemes on a topology.") term

(* ---- topologies ---- *)

let topo_cmd =
  let run () =
    Printf.printf "%-16s %6s %6s %8s\n" "name" "nodes" "edges" "bridges?";
    List.iter
      (fun (name, n, m) ->
        let g = Flexile_net.Catalog.by_name name in
        let bridged =
          Array.exists
            (fun (e : Flexile_net.Graph.edge) ->
              not
                (Flexile_net.Graph.connected g
                   ~alive:(fun id -> id <> e.Flexile_net.Graph.id)
                   e.Flexile_net.Graph.u e.Flexile_net.Graph.v))
            g.Flexile_net.Graph.edges
        in
        Printf.printf "%-16s %6d %6d %8s\n" name n m (if bridged then "yes" else "no"))
      Flexile_net.Catalog.table2
  in
  let term = Term.(const run $ verbose_term) in
  Cmd.v (Cmd.info "topologies" ~doc:"List the Table-2 topology catalog.") term

(* ---- scale ---- *)

let scale_cmd =
  let scheme_arg =
    Arg.(
      value
      & opt scheme_conv Flexile_core.Schemes.Flexile
      & info [ "scheme" ] ~doc:"Scheme to search.")
  in
  let run () name scheme jobs =
    let graph = Flexile_net.Catalog.by_name name in
    let options =
      { Flexile_core.Builder.default_options with Flexile_core.Builder.jobs }
    in
    let s = Flexile_core.Max_scale.search ~options ~scheme ~graph () in
    Printf.printf "%s on %s: max low-priority scale with zero 99%%ile loss = %.2f\n"
      (Flexile_core.Schemes.name scheme) name s
  in
  let term = Term.(const run $ verbose_term $ topology_arg $ scheme_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "scale" ~doc:"Fig 18: max sustainable low-priority traffic scale.")
    term

(* ---- emulate ---- *)

let emulate_cmd =
  let scheme_arg =
    Arg.(
      value
      & opt scheme_conv Flexile_core.Schemes.Flexile
      & info [ "scheme" ] ~doc:"Scheme to emulate.")
  in
  let runs_arg =
    Arg.(value & opt nonnegative_int 5 & info [ "runs" ] ~doc:"Independent emulation runs.")
  in
  let run () name two scenarios mix max_pairs scheme runs jobs =
    let inst = build_instance ~two ~scenarios ?mix ~max_pairs name in
    print_instance inst;
    let model = Flexile_core.Schemes.run ~jobs scheme inst in
    report inst (Flexile_core.Schemes.name scheme ^ " (model)") model;
    let seeds =
      List.init runs (fun i ->
          Flexile_util.Prng.of_string (Printf.sprintf "emu-%d" (i + 1)))
    in
    List.iteri
      (fun i r ->
        Printf.printf "run %d: PCC=%.6f max|diff|=%.4f%%" (i + 1)
          r.Flexile_emu.Emulator.pcc
          (100. *. r.Flexile_emu.Emulator.max_abs_diff);
        Array.iteri
          (fun k (_ : Instance.cls) ->
            Printf.printf "  PercLoss[%d]=%.2f%%" k
              (100.
              *. Metrics.perc_loss inst r.Flexile_emu.Emulator.emulated ~cls:k))
          inst.Instance.classes;
        print_newline ())
      (Flexile_emu.Emulator.emulate ~seeds inst ~model_losses:model)
  in
  let term =
    Term.(const run $ verbose_term $ topology_arg $ two_class_arg
          $ scenarios_arg $ mix_arg $ pairs_arg $ scheme_arg $ runs_arg
          $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "emulate" ~doc:"Emulate a scheme's allocation with discretization.")
    term

(* ---- monitor ---- *)

(* Replay a seeded stream of failure draws through the online
   allocator (optionally through the emulator) and watch the SLO: the
   offline solve's per-class PercLoss is the promise, Flexile_obs.Slo
   tracks observed attainment and burn rate, and metrics snapshots go
   out as JSONL plus a final Prometheus page.  Artifacts are
   byte-identical across invocations and job counts for a fixed seed:
   both carry only the exporter's deterministic subset, the metrics
   that are pure functions of the seeded work. *)
let monitor_cmd =
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Seed of the failure-draw sequence (fully determines the \
                   replay).")
  in
  let draws_arg =
    Arg.(value & opt positive_int 200
         & info [ "draws" ] ~docv:"N" ~doc:"Number of failure draws to replay.")
  in
  let snapshot_arg =
    Arg.(value & opt positive_int 50
         & info [ "snapshot-every" ] ~docv:"N"
             ~doc:"Emit one JSONL metrics+SLO snapshot every $(docv) draws \
                   (and a final one).")
  in
  let window_arg =
    Arg.(value & opt positive_int 100
         & info [ "window" ] ~docv:"N"
             ~doc:"Sliding window (in draws) of the burn-rate computation.")
  in
  let prom_arg =
    Arg.(value & opt (some string) None
         & info [ "prom" ] ~docv:"FILE"
             ~doc:"Write the final metric registry as Prometheus text \
                   exposition format to $(docv).")
  in
  let jsonl_arg =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Write the snapshot time series (one JSON object per line) \
                   to $(docv).")
  in
  let emulate_arg =
    Arg.(value & flag
         & info [ "emulate" ]
             ~doc:"Push each drawn scenario's allocation through the \
                   packet-level discretization emulator and observe the \
                   emulated losses instead of the fluid ones.")
  in
  let explain_arg =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"FILE"
             ~doc:"Attribute each class's SLO state (miss mass, regimes, \
                   bottlenecks, regret) against the observed losses: every \
                   JSONL snapshot gains an $(b,attribution) field and the \
                   final full report is written to $(docv).  Adds one \
                   clairvoyant LP per (class, scenario) up front, so the \
                   deterministic metric exports differ from a run without \
                   this flag.")
  in
  let run () name two scenarios mix max_pairs iterations jobs seed draws
      snapshot_every window prom jsonl emulate explain =
    (* histograms and counters drive the report; enable unconditionally *)
    Trace.set_enabled true;
    let inst = build_instance ~two ~scenarios ?mix ~max_pairs name in
    print_instance inst;
    let off, promised = offline_promise inst ~iterations ~jobs in
    let best = off.Flexile_te.Flexile_offline.best in
    Array.iteri
      (fun k p ->
        Printf.printf "promise class %d (%s): PercLoss <= %.4f%%\n" k
          inst.Instance.classes.(k).Instance.cname (100. *. p))
      promised;
    let slo = Flexile_obs.Slo.create ~window ~promised inst in
    (* gather the attribution inputs once, before the draw loop: the
       online duals and regret baseline depend only on the instance *)
    let attribution =
      Option.map
        (fun _ -> Flexile_obs.Attribution.prepare ~jobs inst ~offline:off ~promised ())
        explain
    in
    let nscen = Instance.nscenarios inst in
    let cum = Array.make nscen 0. in
    let acc = ref 0. in
    Array.iteri
      (fun i (s : Flexile_failure.Failure_model.scenario) ->
        acc := !acc +. s.Flexile_failure.Failure_model.prob;
        cum.(i) <- !acc)
      inst.Instance.scenarios;
    let coverage =
      Flexile_failure.Failure_model.coverage inst.Instance.scenarios
    in
    (* the emulator reads one column of a model matrix; fill lazily *)
    let model = if emulate then Some (Instance.alloc_losses inst) else None in
    let cache = Array.make nscen None in
    let losses_for sid =
      match cache.(sid) with
      | Some a -> a
      | None ->
          let arr = Array.make (Instance.nflows inst) 0. in
          List.iter
            (fun (fid, l) -> arr.(fid) <- l)
            (Flexile_te.Flexile_online.allocate inst ~sid
               ~critical:(fun fid ->
                 best.Flexile_te.Flexile_offline.z.(fid).(sid))
               ~offline_loss:(fun fid ->
                 best.Flexile_te.Flexile_offline.losses.(fid).(sid)));
          let arr =
            match model with
            | None -> arr
            | Some m ->
                Array.iteri (fun fid l -> m.(fid).(sid) <- l) arr;
                (* per-scenario seed: the cache makes each scenario's
                   emulation independent of draw order *)
                let eseed =
                  Flexile_util.Prng.of_string
                    (Printf.sprintf "monitor-emu-%d-%d" seed sid)
                in
                Flexile_emu.Emulator.emulate_scenario ~seed:eseed inst ~sid
                  ~model_losses:m
          in
          cache.(sid) <- Some arr;
          arr
    in
    let rng =
      Flexile_util.Prng.of_string (Printf.sprintf "monitor-%d" seed)
    in
    let jsonl_buf = Buffer.create 4096 in
    for i = 1 to draws do
      let u = Flexile_util.Prng.float rng in
      if u >= coverage then Flexile_obs.Slo.observe_unenumerated slo
      else begin
        let sid = ref 0 in
        while cum.(!sid) <= u do incr sid done;
        Flexile_obs.Slo.observe slo ~sid:!sid ~losses:(losses_for !sid)
      end;
      if i mod snapshot_every = 0 || i = draws then begin
        let attr_field =
          match attribution with
          | None -> []
          | Some inp ->
              let rep =
                Flexile_obs.Attribution.analyze inp
                  ~losses:(Flexile_obs.Slo.observed_losses slo)
              in
              [ ("attribution", Flexile_obs.Attribution.snapshot_json rep) ]
        in
        let line =
          Json.Object
            ([ ("draw", Json.int i); ("slo", Flexile_obs.Slo.report_json slo) ]
            @ attr_field
            @ [ ("metrics", Trace_export.snapshot_json ()) ])
        in
        Buffer.add_string jsonl_buf (Json.encode line);
        Buffer.add_char jsonl_buf '\n'
      end
    done;
    Option.iter
      (fun path ->
        match attribution with
        | None -> ()
        | Some inp ->
            let rep =
              Flexile_obs.Attribution.analyze inp
                ~losses:(Flexile_obs.Slo.observed_losses slo)
            in
            Json.write_file path (Flexile_obs.Attribution.report_json rep);
            Printf.printf "wrote attribution report to %s\n" path)
      explain;
    Option.iter
      (fun path ->
        let oc = open_out path in
        Buffer.output_buffer oc jsonl_buf;
        close_out oc;
        Printf.printf "wrote snapshots to %s\n" path)
      jsonl;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Trace_export.prometheus ());
        close_out oc;
        Printf.printf "wrote Prometheus metrics to %s\n" path)
      prom;
    Printf.printf
      "monitor: %d draws (%d outside the enumerated set), %d/%d scenarios seen\n"
      (Flexile_obs.Slo.draws slo)
      (Flexile_obs.Slo.unenumerated_draws slo)
      (Flexile_obs.Slo.scenarios_seen slo)
      nscen;
    List.iter
      (fun (r : Flexile_obs.Slo.class_report) ->
        Printf.printf
          "class %d (%s): promised %.4f%% observed %.4f%% %s  bad draws \
           %d/%d  burn rate %.3f (window %d)\n"
          r.Flexile_obs.Slo.rcls r.Flexile_obs.Slo.rname
          (100. *. r.Flexile_obs.Slo.rpromised)
          (100. *. r.Flexile_obs.Slo.robserved)
          (if r.Flexile_obs.Slo.rattained then "ATTAINED" else "MISSED")
          r.Flexile_obs.Slo.rbad_draws
          (Flexile_obs.Slo.draws slo)
          r.Flexile_obs.Slo.rburn_rate r.Flexile_obs.Slo.rwindow_len)
      (Flexile_obs.Slo.report slo)
  in
  let term =
    Term.(const run $ verbose_term $ topology_arg $ two_class_arg
          $ scenarios_arg $ mix_arg $ pairs_arg $ iterations_arg $ jobs_arg
          $ seed_arg $ draws_arg $ snapshot_arg $ window_arg $ prom_arg
          $ jsonl_arg $ emulate_arg $ explain_arg)
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Replay a seeded failure stream and report SLO attainment.")
    term

(* ---- explain ---- *)

(* Solve the instance, then attribute every class's percentile
   objective: which scenarios carry the tail mass beyond beta (tagged
   with their failure regime), which capacity edges bind in them (LP
   duals the online allocation already computed), and how much the
   online allocator regrets versus a clairvoyant per-class optimum.
   All artifacts are byte-identical for a fixed instance across runs
   and across --jobs values. *)
let explain_cmd =
  let tol_arg =
    Arg.(value & opt nonnegative_float 1e-6
         & info [ "tol" ] ~docv:"EPS"
             ~doc:"Slack added to every promise comparison.")
  in
  let top_arg =
    Arg.(value & opt nonnegative_int 5
         & info [ "top" ] ~docv:"N"
             ~doc:"Attributed scenarios listed per class; the rest folds \
                   into the report's other_mass (the reconciliation still \
                   covers it).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the full attribution report as one-line JSON to \
                   $(docv).")
  in
  let prom_arg =
    Arg.(value & opt (some string) None
         & info [ "prom" ] ~docv:"FILE"
             ~doc:"Write the deterministic metric registry plus the labeled \
                   attribution families (flexile_slo_miss_mass, \
                   flexile_slo_budget_burn, flexile_slo_attainment, \
                   flexile_regret) to $(docv).")
  in
  let regimes_arg =
    Arg.(value & opt (some string) None
         & info [ "regimes" ] ~docv:"FILE"
             ~doc:"Write the regime-conditioned attainment table (per class, \
                   per failure regime) as JSON to $(docv).")
  in
  let run () name two scenarios mix max_pairs iterations jobs tol top out
      prom regimes =
    (* the regret histogram and attribution families need the registry on *)
    Trace.set_enabled true;
    let inst = build_instance ~two ~scenarios ?mix ~max_pairs name in
    print_instance inst;
    let off, promised = offline_promise inst ~iterations ~jobs in
    let inp =
      Flexile_obs.Attribution.prepare ~jobs ~tol inst ~offline:off ~promised ()
    in
    let rep =
      Flexile_obs.Attribution.analyze ~top inp
        ~losses:(Flexile_obs.Attribution.online_losses inp)
    in
    let open Flexile_obs.Attribution in
    let edge_name bn = Printf.sprintf "%d (%d-%d)" bn.bedge bn.bu bn.bv in
    List.iter
      (fun a ->
        Printf.printf
          "class %d (%s): %s  promised %.4f%% observed %.4f%% gap %.4f%%\n"
          a.acls a.aname
          (if a.aattained then "ATTAINED" else "MISSED")
          (100. *. a.apromised) (100. *. a.aobserved)
          (100. *. a.apromise_gap);
        Printf.printf
          "  miss mass %.6f = attributed %.6f + beyond-top %.6f + \
           unenumerated %.6f  (budget burn %.3f)\n"
          a.amiss_mass
          (attributed_total a -. a.aother_mass -. a.aunenumerated)
          a.aother_mass a.aunenumerated a.aburn;
        List.iteri
          (fun i s ->
            Printf.printf
              "  #%d scenario %d [%s] p=%.6f loss=%.2f%% attributed=%.6f \
               regret=%.2f%%\n"
              (i + 1) s.ssid s.sregime s.sprob (100. *. s.sloss) s.sattr
              (100. *. s.sregret);
            if s.sbottlenecks <> [] then
              Printf.printf "      binding edges: %s\n"
                (String.concat ", "
                   (List.map
                      (fun bn ->
                        Printf.sprintf "%s dual %.3f" (edge_name bn) bn.bdual)
                      s.sbottlenecks)))
          a.ascenarios;
        List.iter
          (fun g ->
            Printf.printf
              "  regime %-12s mass %.6f attributed %.6f attainment %.4f%% %s \
               regret %.4f%%\n"
              g.gregime g.gmass g.gattr
              (100. *. g.gattainment)
              (if g.gattained then "ATTAINED" else "MISSED")
              (100. *. g.gregret))
          a.aregimes;
        if a.ablame <> [] then
          Printf.printf "  blame: %s\n"
            (String.concat "; "
               (List.map
                  (fun bn ->
                    Printf.sprintf "edge %s %.6f" (edge_name bn) bn.bdual)
                  a.ablame));
        Printf.printf "  regret: expected %.4f%% max %.4f%%\n"
          (100. *. a.aregret_expected)
          (100. *. a.aregret_max))
      rep.classes;
    let write path contents what =
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Printf.printf "wrote %s to %s\n" what path
    in
    let write_json path v what =
      Json.write_file path v;
      Printf.printf "wrote %s to %s\n" what path
    in
    Option.iter
      (fun path -> write_json path (report_json rep) "attribution report")
      out;
    Option.iter
      (fun path ->
        write path
          (Trace_export.prometheus () ^ prometheus_families rep)
          "Prometheus metrics")
      prom;
    Option.iter
      (fun path ->
        write_json path (regimes_json rep) "regime-conditioned attainment")
      regimes
  in
  let term =
    Term.(const run $ verbose_term $ topology_arg $ two_class_arg
          $ scenarios_arg $ mix_arg $ pairs_arg $ iterations_arg $ jobs_arg
          $ tol_arg $ top_arg $ out_arg $ prom_arg $ regimes_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Attribute SLO misses: scenarios, regimes, bottleneck edges and \
             regret per class.")
    term

(* ---- doctor ---- *)

(* Replay a solve with elevated instrumentation and emit the numerical
   diagnosis (DESIGN.md section 15).  Two sources: a seeded
   pathological fixture (--fixture) or a snapshot auto-dumped by a
   health-threshold trip (--from-dump).  Either report is
   byte-identical across runs: the solve runs on the calling domain.
   A topology's solver health is the solver_health section of
   [flexile solve TOPOLOGY --trace]. *)
let doctor_cmd =
  let fixture_arg =
    let doc =
      "Diagnose a seeded pathological fixture: $(b,near-singular) (an \
       ill-conditioned optimal basis plus a degenerate chain) or \
       $(b,degenerate) (the chain alone)."
    in
    Arg.(value & opt (some string) None & info [ "fixture" ] ~docv:"NAME" ~doc)
  in
  let dump_arg =
    let doc =
      "Diagnose a health snapshot written on a threshold trip (see \
       FLEXILE_HEALTH_DUMP): measures the dumped basis as captured, then \
       replays the dumped model under the recorded eta limit."
    in
    Arg.(
      value & opt (some string) None & info [ "from-dump" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the diagnosis JSON to $(docv) instead of stdout.")
  in
  let run () fixture dump out chrome =
    if chrome <> None then Trace.set_enabled true;
    let diagnosis =
      match (fixture, dump) with
      | Some name, None -> Flexile_lp.Doctor.run_fixture name
      | None, Some path -> Flexile_lp.Doctor.run_dump path
      | _ -> Error "pass exactly one of --fixture NAME or --from-dump FILE"
    in
    match diagnosis with
    | Error e ->
        prerr_endline ("doctor: " ^ e);
        exit 1
    | Ok r ->
        (match out with
        | None -> print_endline (Json.encode r.Flexile_lp.Doctor.r_report)
        | Some path ->
            Json.write_file path r.Flexile_lp.Doctor.r_report;
            Printf.printf "wrote diagnosis to %s\n" path);
        Option.iter
          (fun path ->
            Json.write_file path (Trace_export.chrome_json ());
            Printf.printf "wrote Chrome trace to %s (load in Perfetto)\n" path)
          chrome
  in
  let term =
    Term.(const run $ verbose_term $ fixture_arg $ dump_arg $ out_arg
          $ chrome_arg)
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:"Diagnose solver numerical health: stalls, ill-conditioning, \
             residual drift.")
    term

(* ---- augment ---- *)

let augment_cmd =
  let limit_arg =
    Arg.(value & opt float 0.0 & info [ "loss-limit" ]
           ~doc:"Allowed PercLoss per class after augmentation.")
  in
  let mode_arg =
    let doc = "Planning mode: flexile (per-flow critical scenarios) or common (scenario-centric)." in
    Arg.(
      value
      & opt (enum [ ("flexile", `Per_flow); ("common", `Common) ]) `Per_flow
      & info [ "mode" ] ~doc)
  in
  let run () name two scenarios mix max_pairs limit mode =
    let inst = build_instance ~two ~scenarios ?mix ~cap_scenarios:30
        ~max_pairs:(min max_pairs 40) name in
    print_instance inst;
    let perc_limit =
      Array.map (fun (_ : Instance.cls) -> limit) inst.Instance.classes
    in
    let r = Flexile_te.Augment.min_cost ~mode ~perc_limit inst in
    match r.Flexile_te.Augment.status with
    | Flexile_lp.Mip.Infeasible -> print_endline "augmentation infeasible"
    | Flexile_lp.Mip.Limit ->
        Printf.printf "augmentation: no plan within %d nodes\n"
          r.Flexile_te.Augment.nodes
    | Flexile_lp.Mip.Optimal | Flexile_lp.Mip.Feasible ->
      Printf.printf "minimum augmentation cost: %.3f%s\n"
        r.Flexile_te.Augment.cost
        (if r.Flexile_te.Augment.status = Flexile_lp.Mip.Optimal then ""
         else " (not proven optimal)");
      Array.iteri
        (fun e add ->
          if add > 1e-6 then
            let edge = inst.Instance.graph.Flexile_net.Graph.edges.(e) in
            Printf.printf "  link %d-%d: +%.3f\n" edge.Flexile_net.Graph.u
              edge.Flexile_net.Graph.v add)
        r.Flexile_te.Augment.added
  in
  let term =
    Term.(const run $ verbose_term $ topology_arg $ two_class_arg
          $ scenarios_arg $ mix_arg $ pairs_arg $ limit_arg $ mode_arg)
  in
  Cmd.v
    (Cmd.info "augment"
       ~doc:"Minimum-cost capacity augmentation to meet percentile targets.")
    term

let () =
  let info = Cmd.info "flexile" ~doc:"Percentile-aware traffic engineering (CoNEXT'22 reproduction)." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd; compare_cmd; topo_cmd; scale_cmd; emulate_cmd;
            monitor_cmd; explain_cmd; doctor_cmd; augment_cmd;
          ]))
