(* Flexile end-to-end benchmark.

   One process runs one workload.  It warms up on untimed work of the
   workload's own kind, builds the workload's inputs several times
   (set-up), then runs timed passes for --seconds seconds and checks
   every output.  The last line of standard output is one JSON object

     {"correct":..,"attempted":..,"failed":..,"metrics":{..}}

   carrying the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1); the lines before it give the same numbers for people.

     dune exec --display=quiet -- flexbench/main.exe \
       --workload failover-ibm2 --seed 1 --seconds 20 --trace 0

   The benchmark measures the library from outside: it times calls into
   public functions, wraps them in its own Trace spans, and reads deltas
   of the Trace counters, timers and spans the library already keeps.
   README.md describes the workloads and metrics. *)

open Flexile_core
open Flexile_te
module Trace = Flexile_util.Trace
module Prng = Flexile_util.Prng
module Stats = Flexile_util.Stats

(* Worker domains of every parallel sweep: the main domain plus one. *)
let jobs = 2

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let now = Trace.now_s

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median = Flexile_util.Bench_gate.median

(* The fastest of repeated runs of the same work.  A shared host slows
   whole stretches of a few seconds by up to 1.6x (other tenants' load),
   and the fastest repeat is the one least touched by that. *)
let fastest xs = List.fold_left Float.min Float.infinity xs

(* Nearest rank. *)
let percentile xs p =
  if xs = [] then Float.nan else Stats.percentile (Array.of_list xs) p

(* VmHWM: the kernel's high-water mark of this process's resident set. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> Float.nan
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* The benchmark's own spans around calls into the library's public
   functions.  The library's spans nest below them. *)
let sp_pass = Trace.span "bench.pass"
let sp_check = Trace.span "bench.check"
let sp_builder = Trace.span "bench.Builder.of_name"
let sp_offline = Trace.span "bench.Flexile_offline.solve"
let sp_allocate = Trace.span "bench.Flexile_online.allocate"
let sp_scen_lp = Trace.span "bench.Scen_lp.build"
let sp_schemes = Trace.span "bench.Schemes.run"
let sp_flexile = Trace.span "bench.scheme.Flexile"

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* One checked operation: it fails if any named property is false. *)
let operation what checks =
  incr attempted;
  match List.filter (fun (_, ok) -> not ok) checks with
  | [] -> ()
  | bad ->
      incr failed;
      if !failed <= 20 then
        Printf.printf "CHECK FAILED %s: %s\n%!" what
          (String.concat "; " (List.map fst bad))

(* Reference outputs.  Every solve below is deterministic (cold LP
   solves, bit-identical for every job count), so another value is
   another answer: for instance the MIP master, which stops on a wall
   clock limit, stopping at a different node. *)
let ref_tolerance = 1e-9
let ref_cwix_offline = 0.11422303765524436
let ref_cwix_online = 0.11422313765524436
let ref_ibm2_offline = 0.
let ref_ibm2_online = 0.
let ref_mix_offline = 0.
let ref_mix_online = 9.9999999999999995e-08

let ref_mix_schemes =
  [
    (Schemes.Smore, 0.47976486946386177);
    (Schemes.Teavar, 1.);
    (Schemes.Cvar_flow_st, 0.72402278236039286);
  ]

let near reference v = Float.abs (v -. reference) <= ref_tolerance

(* Bit-exact fingerprint of a plan: criticality, losses, penalty, bound
   and subproblem count. *)
let plan_digest (r : Flexile_offline.result) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (r.best.z, r.best.losses, r.best.penalty, r.lower_bound, r.subproblems_solved)
          []))

(* The CWIX plan computed at jobs 1.  Every jobs-2 plan must match it,
   and the traced run recomputes it at jobs 1. *)
let ref_cwix_plan = "8feb4697ad91ab79d4444816117c14a3"

(* [bound_slack]: how far the master's lower bound may exceed the
   achieved penalty.  The subproblems carry a tiny secondary objective
   on losses that distorts the bound by up to ~1e-3 (see
   Flexile_offline.build_template); the CWIX plan keeps it within 1e-9. *)
let check_plan what ~reference ~bound_slack ?digest (r : Flexile_offline.result) =
  Trace.in_span sp_check @@ fun () ->
  operation what
    ([
       ("penalty equals the reference", near reference r.best.penalty);
       ("lower bound <= penalty", r.lower_bound <= r.best.penalty +. bound_slack);
     ]
    @
    match digest with
    | None -> []
    | Some d -> [ ("plan equals the jobs-1 plan bit for bit", plan_digest r = d) ])

let check_penalty what inst losses ~reference =
  Trace.in_span sp_check @@ fun () ->
  operation what
    [ ("penalty equals the reference", near reference (Metrics.total_weighted_penalty inst losses)) ]

(* ------------------------------------------------------------------ *)
(* What a run measures                                                 *)
(* ------------------------------------------------------------------ *)

type event = {
  sid : int;
  latency : float;  (** seconds inside Flexile_online.allocate *)
  minor_words : float;  (** allocated by the call, on its domain *)
}

(* One traced pass, read back from the Trace registry. *)
type pass_trace = {
  wall : float;
  counts : (string * int) list;  (** exact work counts of the pass *)
  seconds : (string * float) list;  (** timer and span totals *)
  imbalance : int;
  iterations_p50 : float;
  gc_minor_words : float;
  gc_major_collections : int;
  budget : (string * float) list;  (** self seconds per layer *)
  events : event list;
  online_lp_solves : int;
  cvar_self : float option;
}

let setup_s = ref []
let builder_s = ref []
let offline_s = ref []

(* flexile.* deltas of each traced Flexile_offline.solve *)
let offline_traced : (string * float) list list ref = ref []
let untraced_walls = ref []
(* the online events of all untraced passes *)
let untraced_events : event list ref = ref []
let traced_passes : pass_trace list ref = ref []
let scen_lp_build_s = ref []
let scheme_s : (string * float) list ref = ref []

(* ------------------------------------------------------------------ *)
(* Calls into the library                                              *)
(* ------------------------------------------------------------------ *)

let build ?(two_classes = false) ~options name =
  let inst, dt =
    timed (fun () ->
        Trace.in_span sp_builder (fun () -> Builder.of_name ~options ~two_classes name))
  in
  builder_s := dt :: !builder_s;
  inst

let offline_counters =
  [
    "flexile.iterations"; "flexile.subproblems_solved"; "flexile.scenarios_pruned";
    "flexile.cuts_generated"; "flexile.master_solves";
  ]

let offline_timers = [ "flexile.subproblem_sweep"; "flexile.master" ]

let read_offline () =
  List.map (fun n -> (n, float_of_int (Trace.value_by_name n))) offline_counters
  @ List.map (fun n -> (n, Trace.timer_seconds_by_name n)) offline_timers

(* [record]: whether the solve counts towards offline_solve_s (warm-up
   solves do not).  [max_iterations] defaults to the paper's 5. *)
let solve_offline ?(record = true) ?(max_iterations = 5) ~jobs inst =
  let before = read_offline () in
  let r, dt =
    timed (fun () ->
        Trace.in_span sp_offline (fun () ->
            Flexile_offline.solve
              ~config:{ Flexile_offline.default_config with jobs; max_iterations }
              inst))
  in
  if record then begin
    offline_s := dt :: !offline_s;
    if Trace.enabled () then
      offline_traced :=
        List.map2 (fun (n, b) (_, a) -> (n, a -. b)) before (read_offline ())
        :: !offline_traced
  end;
  r

let allocate inst (plan : Flexile_offline.iterate) sid =
  let w0 = Gc.minor_words () in
  let fl, latency =
    timed (fun () ->
        Trace.in_span ~arg:sid sp_allocate (fun () ->
            Flexile_online.allocate inst ~sid
              ~critical:(fun fid -> plan.z.(fid).(sid))
              ~offline_loss:(fun fid -> plan.losses.(fid).(sid))))
  in
  (fl, { sid; latency; minor_words = Gc.minor_words () -. w0 })

(* The loss matrix every scheme reports: zero-demand flows at loss 0,
   everything else at 1 until a scenario's allocation fills it in. *)
let fresh_losses inst =
  let losses = Instance.alloc_losses inst in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.demand <= 0. then Array.fill losses.(f.fid) 0 (Instance.nscenarios inst) 0.)
    inst.Instance.flows;
  losses

(* Checks one allocation and writes it into [losses]: every
   positive-demand flow gets a loss in [0,1] (up to LP tolerance), and
   a flow critical in the scenario keeps the loss the plan guaranteed. *)
let record_allocation inst (plan : Flexile_offline.iterate) losses sid fl =
  Trace.in_span sp_check @@ fun () ->
  let seen = Array.make (Instance.nflows inst) false in
  let in_range = ref true and guaranteed = ref true in
  List.iter
    (fun (fid, l) ->
      seen.(fid) <- true;
      if not (l >= -1e-9 && l <= 1. +. 1e-9) then in_range := false;
      if plan.z.(fid).(sid) && l > plan.losses.(fid).(sid) +. 1e-6 then
        guaranteed := false;
      losses.(fid).(sid) <- Float.max 0. (Float.min 1. l))
    fl;
  let served =
    Array.for_all (fun (f : Instance.flow) -> f.demand <= 0. || seen.(f.fid)) inst.Instance.flows
  in
  operation
    (Printf.sprintf "allocation in scenario %d" sid)
    [
      ("every positive-demand flow has a loss", served);
      ("losses in [0,1]", !in_range);
      ("critical flows keep their offline loss", !guaranteed);
    ]

let failure_scenarios inst =
  List.filter
    (fun sid -> Instance.regime inst ~sid <> "nominal")
    (List.init (Instance.nscenarios inst) Fun.id)

(* The plan's losses before any failure: the nominal scenarios'
   allocations, untimed; a replay fills in the failure scenarios. *)
let nominal_losses inst plan =
  let losses = fresh_losses inst in
  List.iter
    (fun sid ->
      if Instance.regime inst ~sid = "nominal" then
        record_allocation inst plan losses sid (fst (allocate inst plan sid)))
    (List.init (Instance.nscenarios inst) Fun.id);
  losses

(* The closed loop: one caller, one Flexile_online.allocate per failure
   event, the next event only after the previous allocation returned.
   The replayed losses must give the reference online penalty. *)
let replay inst plan ~base ~order ~reference =
  let losses = Array.map Array.copy base in
  let events =
    List.map
      (fun sid ->
        let fl, ev = allocate inst plan sid in
        record_allocation inst plan losses sid fl;
        ev)
      order
  in
  check_penalty "online replay" inst losses ~reference;
  events

(* Flexile's online phase as Flexile_online.run runs it (one
   allocation per scenario, fanned out through Scenario_engine at the
   given job count), with each allocation timed inside its worker. *)
let online_sweep inst plan =
  let per_sid =
    Scenario_engine.sweep ~jobs inst ~init:(fun _ -> ()) ~f:(fun () sid -> allocate inst plan sid)
  in
  let losses = fresh_losses inst in
  Array.iteri (fun sid (fl, _) -> record_allocation inst plan losses sid fl) per_sid;
  (losses, Array.to_list (Array.map snd per_sid))

(* TeaVar and Cvar-Flow-St reach the simplex only through Row_gen,
   whose rounds open no simplex.solve span.  Their iterations are kept
   apart so that simplex.us_per_iter divides span time by the
   iterations made inside the spans. *)
let unspanned_iterations = ref 0

let run_scheme scheme inst =
  let it0 = Trace.value_by_name "simplex.iterations" in
  let losses, dt =
    timed (fun () -> Trace.in_span sp_schemes (fun () -> Schemes.run ~jobs scheme inst))
  in
  (match scheme with
  | Schemes.Teavar | Schemes.Cvar_flow_st ->
      unspanned_iterations :=
        !unspanned_iterations + Trace.value_by_name "simplex.iterations" - it0
  | _ -> ());
  if not (Trace.enabled ()) then scheme_s := (Schemes.name scheme, dt) :: !scheme_s;
  losses

(* Counts simplex LP solves made by the online phase [f]; zero when
   tracing is off. *)
let online_phase f =
  let c0 = Trace.value_by_name "simplex.cold_solves" in
  let events = f () in
  (events, Trace.value_by_name "simplex.cold_solves" - c0)

(* ------------------------------------------------------------------ *)
(* Run structure: warm-up, set-up, timed passes                        *)
(* ------------------------------------------------------------------ *)

(* A host that was idle runs the first seconds of work markedly slower
   (up to 1.7x on identical work counts).  Every run therefore starts
   with at least [warmup_s] of the workload's own work, untimed but with
   its outputs checked, before set-up and the timed passes. *)
let warmup_s = 3.

let warm_up what f =
  let t0 = now () in
  let rounds = ref 0 in
  while !rounds = 0 || now () -. t0 < warmup_s do
    f ();
    incr rounds
  done;
  Printf.printf "warm-up: %s, %d round(s), %.2f s untimed\n%!" what !rounds (now () -. t0)

(* Set-up runs [reps] times; setup_s is the median.  The last result
   is the one the timed passes use.  Each set-up, like each timed pass,
   starts after an untimed full major collection, so that garbage left
   by earlier work is not charged to it. *)
let setup ~reps what f =
  let last = ref None in
  for _ = 1 to reps do
    Gc.full_major ();
    let v, dt = timed f in
    setup_s := dt :: !setup_s;
    last := Some v
  done;
  Printf.printf "set-up: %s, %d times, median %.4f s\n%!" what reps (median !setup_s);
  Option.get !last

(* More set-ups between timed passes, whose results are dropped: the
   host's speed changes over seconds, and set-ups spread over the whole
   run give a median that does not hang on one stretch of it. *)
let more_setups ?(reps = 5) f =
  for _ = 1 to reps do
    Gc.full_major ();
    setup_s := snd (timed f) :: !setup_s
  done

let counters_per_pass =
  [
    "simplex.cold_solves"; "simplex.iterations"; "simplex.refactorizations";
    "simplex.eta_updates"; "simplex.warm_attempts"; "simplex.warm_hits";
    "engine.scenarios"; "engine.scenarios_kept";
  ]

let seconds_per_pass =
  [
    "simplex.solve"; "simplex.factor"; "online.maxmin-loss"; "online.critical-alloc";
    "parallel.worker_busy"; "engine.sweep";
  ]

let span_seconds (n : Trace.span_tree) =
  Int64.to_float (Int64.sub n.node_t1_ns n.node_t0_ns) *. 1e-9

(* Which layer a span's self time belongs to. *)
let layer_of name =
  let has p = String.starts_with ~prefix:p name in
  if name = "bench.pass" then "unattributed"
  else if name = "bench.check" then "bench.checks"
  else if name = "offline.master" then "lp.Mip"
  else if has "simplex." then "lp.Simplex"
  else if has "bench.Flexile_offline" || name = "offline" || has "offline." then "te.Flexile_offline"
  else if has "bench.Flexile_online" || name = "online" || has "online." then "te.Flexile_online"
  else if has "engine." then "te.Scenario_engine"
  else if has "parallel." then "util.Parallel"
  else if has "bench.Schemes" || has "bench.scheme." || has "scheme." then "core.Schemes"
  else "other"

let budget_layers =
  [
    "te.Flexile_offline"; "lp.Mip"; "lp.Simplex"; "te.Flexile_online"; "te.Scenario_engine";
    "util.Parallel"; "core.Schemes"; "bench.checks"; "other"; "unattributed";
  ]

(* Self time (span minus the part its children cover) summed per
   layer over the main domain's pass span.  The pass span's own self
   time is the unattributed remainder, so the layers add up to the
   pass.  Worker-domain spans run concurrently with the main domain's
   wait inside engine.sweep and are not part of this wall-clock budget. *)
let layer_budget (pass : Trace.span_tree) =
  let acc = Hashtbl.create 16 in
  let rec walk (n : Trace.span_tree) =
    let kids = List.fold_left (fun a c -> a +. span_seconds c) 0. n.node_children in
    let layer = layer_of n.node_name in
    let prev = Option.value ~default:0. (Hashtbl.find_opt acc layer) in
    Hashtbl.replace acc layer (prev +. span_seconds n -. kids);
    List.iter walk n.node_children
  in
  walk pass;
  List.map (fun l -> (l, Option.value ~default:0. (Hashtbl.find_opt acc l))) budget_layers

let rec find_span name (n : Trace.span_tree) =
  if n.node_name = name then Some n else List.find_map (find_span name) n.node_children

(* Time inside the outermost simplex.solve spans below [n]. *)
let rec simplex_seconds (n : Trace.span_tree) =
  if n.node_name = "simplex.solve" then span_seconds n
  else List.fold_left (fun a c -> a +. simplex_seconds c) 0. n.node_children

let snapshot ~wall ~gc0 ~events ~online_lp_solves =
  let gc1 = Gc.quick_stat () in
  let pass =
    List.find_opt (fun (n : Trace.span_tree) -> n.node_name = "bench.pass") (Trace.span_trees ())
  in
  {
    wall;
    counts =
      ("simplex.iterations_unspanned", !unspanned_iterations)
      :: List.map (fun n -> (n, Trace.value_by_name n)) counters_per_pass;
    seconds = List.map (fun n -> (n, Trace.timer_seconds_by_name n)) seconds_per_pass;
    imbalance = Trace.value_by_name "parallel.imbalance_permille";
    iterations_p50 =
      Trace.hist_quantile_of (Trace.hist_snapshot_by_name "simplex.iterations_per_solve") 0.5;
    gc_minor_words = gc1.minor_words -. gc0.Gc.minor_words;
    gc_major_collections = gc1.major_collections - gc0.Gc.major_collections;
    budget = (match pass with Some p -> layer_budget p | None -> []);
    events;
    online_lp_solves;
    cvar_self =
      Option.bind pass (fun p ->
          Option.map
            (fun n -> span_seconds n -. simplex_seconds n)
            (find_span "scheme.Cvar-Flow-St" p));
  }

(* Timed passes until [seconds] have elapsed and at least [min_passes]
   untraced ones ran.  With [traced], passes alternate untraced/traced
   and at least [min_passes] of each run: the traced ones give the
   per-layer metrics, the untraced ones the base of the tracing
   overhead.  A traced pass starts from a reset registry and is followed
   by the Scen_lp.build probe of each of its events; an untraced pass by
   [between], whose online events join the pass's. *)
let timed_passes ?(between = fun () -> []) ~seconds ~min_passes ~traced ~inst pass =
  let t0 = now () in
  let i = ref 0 in
  let untraced_n = ref 0 and traced_n = ref 0 in
  let enough () = !untraced_n >= min_passes && ((not traced) || !traced_n >= min_passes) in
  while now () -. t0 < seconds || not (enough ()) do
    let tracing = traced && !i mod 2 = 1 in
    if tracing then begin
      Trace.reset ();
      unspanned_iterations := 0;
      Trace.set_enabled true
    end;
    Gc.full_major ();
    let gc0 = Gc.quick_stat () in
    let (events, online_lp_solves), wall = timed (fun () -> Trace.in_span sp_pass pass) in
    if tracing then begin
      traced_passes := snapshot ~wall ~gc0 ~events ~online_lp_solves :: !traced_passes;
      List.iter
        (fun e ->
          let _, dt =
            timed (fun () -> Trace.in_span sp_scen_lp (fun () -> Scen_lp.build inst ~sid:e.sid))
          in
          scen_lp_build_s := dt :: !scen_lp_build_s)
        events;
      Trace.set_enabled false;
      incr traced_n
    end
    else begin
      untraced_walls := wall :: !untraced_walls;
      untraced_events := between () @ events @ !untraced_events;
      incr untraced_n
    end;
    Printf.printf "pass %d%s: %.3f s, %d online events\n%!" (!i + 1)
      (if tracing then " (traced)" else "")
      wall (List.length events);
    incr i
  done

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let shuffled rng l =
  let a = Array.of_list l in
  Prng.shuffle rng a;
  Array.to_list a

(* The plan of the latest pass, for [between_passes]. *)
let latest_plan = ref None

(* Flexile end to end, as Flexile_scheme.run runs it at jobs 2: the
   offline plan, then the online phase over every scenario.  Returns
   the online events and their LP solves. *)
let flexile inst ~offline_ref ~bound_slack ?digest ~online_ref () =
  Trace.in_span sp_flexile @@ fun () ->
  let r = solve_offline ~jobs inst in
  check_plan "jobs-2 plan" ~reference:offline_ref ~bound_slack ?digest r;
  latest_plan := Some r.best;
  online_phase (fun () ->
      let losses, events = online_sweep inst r.best in
      check_penalty "Flexile online" inst losses ~reference:online_ref;
      events)

(* What runs after an untraced pass of offline-cwix or eval-ibm-mix,
   outside its time: three rounds of five more set-ups, [replan] and
   one more online phase of the pass's plan.  A pass allocates each
   scenario once; this gives each scenario four allocations a pass for
   its fastest one. *)
let between_passes ?(replan = ignore) inst ~rebuild ~online_ref () =
  let plan = Option.get !latest_plan in
  List.concat
    (List.init 3 (fun _ ->
         more_setups rebuild;
         replan ();
         let losses, events = online_sweep inst plan in
         check_penalty "Flexile online replay" inst losses ~reference:online_ref;
         events))

(* Fig. 15's stressed draw: the Benders master (lp.Mip) does most of
   the work.  Every jobs-2 plan must equal the committed jobs-1 plan bit
   for bit; the traced run warms up by recomputing that plan at jobs 1,
   the untraced run by jobs-2 subproblem sweeps.  The first heavy work
   after the second domain starts runs markedly slower, so the worker domain is started before
   the warm-up, not inside the first timed pass. *)
let offline_cwix ~seconds ~traced =
  let options = { Builder.default_options with max_scenarios = 40; jobs } in
  ignore (Flexile_util.Parallel.map ~jobs ~n:jobs ~init:ignore ~f:(fun () i -> i) ());
  if traced then
    warm_up "jobs-1 CWIX plan" (fun () ->
        check_plan "jobs-1 plan" ~reference:ref_cwix_offline ~bound_slack:ref_tolerance
          ~digest:ref_cwix_plan
          (solve_offline ~record:false ~jobs:1 (build ~options "CWIX")))
  else
    warm_up "jobs-2 CWIX subproblem sweeps" (fun () ->
        ignore (solve_offline ~record:false ~max_iterations:1 ~jobs (build ~options "CWIX")));
  builder_s := [];
  if traced then Trace.set_enabled true;
  let rebuild () = build ~options "CWIX" in
  let inst = setup ~reps:10 "Builder.of_name CWIX" rebuild in
  Trace.set_enabled false;
  timed_passes ~seconds ~min_passes:2 ~traced ~inst
    ~between:(between_passes inst ~rebuild ~online_ref:ref_cwix_online)
    (flexile inst ~offline_ref:ref_cwix_offline ~bound_slack:ref_tolerance
       ~digest:ref_cwix_plan ~online_ref:ref_cwix_online)

(* The operator's reaction time: the offline plan is set-up, the timed
   phase is a closed loop of seeded failure events, one allocation at a
   time, in one domain.  A pass replays every failure scenario once in
   a fresh seeded order; a run replays at least three passes, so every
   scenario's fastest allocation is taken over three or more. *)
let failover_ibm2 ~rng ~seconds ~traced =
  let plan_for ?record inst =
    let r = solve_offline ?record ~jobs:1 inst in
    check_plan "IBM two-class plan" ~reference:ref_ibm2_offline ~bound_slack:ref_tolerance r;
    (inst, r.best, nominal_losses inst r.best)
  in
  let options = { Builder.default_options with jobs = 1 } in
  let warm, warm_plan, _ = plan_for ~record:false (build ~two_classes:true ~options "IBM") in
  let warm_losses = fresh_losses warm in
  let warm_events = Array.of_list (failure_scenarios warm) in
  let k = ref 0 in
  warm_up "failover events on a warm-up plan" (fun () ->
      let sid = warm_events.(!k mod Array.length warm_events) in
      incr k;
      record_allocation warm warm_plan warm_losses sid (fst (allocate warm warm_plan sid)));
  builder_s := [];
  if traced then Trace.set_enabled true;
  let inst, plan, base =
    setup ~reps:3 "Builder.of_name IBM two-class + jobs-1 offline plan" (fun () ->
        plan_for (build ~two_classes:true ~options "IBM"))
  in
  Trace.set_enabled false;
  let failures = failure_scenarios inst in
  (* one more set-up after each untraced pass, outside its time: the
     plan is made only in set-up, and offline_solve_s is its fastest *)
  timed_passes ~seconds ~min_passes:3 ~traced ~inst
    ~between:(fun () ->
      more_setups ~reps:1 (fun () -> plan_for (build ~two_classes:true ~options "IBM"));
      [])
    (fun () ->
      online_phase (fun () ->
          replay inst plan ~base ~order:(shuffled rng failures) ~reference:ref_ibm2_online))

(* The paper's scheme comparison on the mixed SRLG + partial-degradation
   scenario set: Flexile (offline plan, then its online phase), SMORE,
   TeaVar and Cvar-Flow-St, every sweep at jobs 2. *)
let eval_ibm_mix ~seconds ~traced =
  let options = { Builder.default_options with scenario_mix = "srlg,partial"; jobs } in
  let warm = build ~options "IBM" in
  warm_up "SMORE and TeaVar on the IBM mix" (fun () ->
      ignore (Schemes.run ~jobs Schemes.Smore warm);
      ignore (Schemes.run ~jobs Schemes.Teavar warm));
  builder_s := [];
  if traced then Trace.set_enabled true;
  let rebuild () = build ~options "IBM" in
  let inst = setup ~reps:10 "Builder.of_name IBM srlg,partial" rebuild in
  Trace.set_enabled false;
  (* the Flexile plan takes a tenth of a pass, and its two domains make
     it the most sensitive to the host's speed: three more after each
     untraced pass give its fastest more tries *)
  let replan () =
    check_plan "jobs-2 plan" ~reference:ref_mix_offline ~bound_slack:1e-3 (solve_offline ~jobs inst)
  in
  timed_passes ~seconds ~min_passes:2 ~traced ~inst
    ~between:(between_passes ~replan inst ~rebuild ~online_ref:ref_mix_online)
    (fun () ->
      let online, dt =
        timed
          (flexile inst ~offline_ref:ref_mix_offline ~bound_slack:1e-3
             ~online_ref:ref_mix_online)
      in
      if not (Trace.enabled ()) then scheme_s := ("Flexile", dt) :: !scheme_s;
      List.iter
        (fun (scheme, reference) ->
          check_penalty (Schemes.name scheme) inst (run_scheme scheme inst) ~reference)
        ref_mix_schemes;
      online)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let latencies events = List.map (fun e -> e.latency) events

(* Each scenario's fastest allocation over the untraced passes: every
   pass allocates every scenario once, so a scenario slowed by a
   stretch of host contention in one pass is taken from another. *)
let fastest_per_scenario events =
  let best = Hashtbl.create 256 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt best e.sid with
      | Some l when l <= e.latency -> ()
      | _ -> Hashtbl.replace best e.sid e.latency)
    events;
  List.of_seq (Hashtbl.to_seq_values best)

(* Latency percentiles are over the scenarios' fastest allocations, and
   the times of repeated work are the fastest repeat.  The tail is p90:
   offline-cwix has 40 scenarios, so p99 would be the maximum. *)
let end_to_end () =
  let scenario_p p = 1e3 *. percentile (fastest_per_scenario !untraced_events) p in
  [
    m "setup_s" "s" (median !setup_s);
    m "offline_solve_s" "s" (fastest !offline_s);
    m "online_p50_ms" "ms" (scenario_p 0.5);
    m "online_p90_ms" "ms" (scenario_p 0.9);
    m "eval_s" "s" (fastest !untraced_walls);
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

(* p99 over all events of a run has fewer than ten events beyond it on
   every workload, so it is printed with its event count rather than
   reported. *)
let print_p99 () =
  let events = latencies !untraced_events in
  let n = List.length events in
  Printf.printf "  %-34s %14.6g ms (%d events, %d beyond)\n" "online_p99_ms"
    (1e3 *. percentile events 0.99)
    n
    (n - int_of_float (Float.ceil (0.99 *. float_of_int n)))

let assoc_i name l = Option.value ~default:0 (List.assoc_opt name l)
let assoc_f name l = Option.value ~default:0. (List.assoc_opt name l)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Work counts must repeat exactly across the traced passes (and the
   traced offline solves) of one run: an operation whose count differs
   fails. *)
let check_counts_repeat passes solves =
  match passes with
  | [] -> ()
  | p :: rest ->
      operation "work counts repeat across traced passes"
        [
          ("simplex and engine counts", List.for_all (fun q -> q.counts = p.counts) rest);
          ( "online LP solves",
            List.for_all (fun q -> q.online_lp_solves = p.online_lp_solves) rest );
          ( "offline counts",
            match solves with
            | [] -> true
            | s :: others ->
                let counts l = List.filter (fun (n, _) -> List.mem n offline_counters) l in
                List.for_all (fun o -> counts o = counts s) others );
        ]

let per_layer () =
  let passes = List.rev !traced_passes in
  let solves = List.rev !offline_traced in
  check_counts_repeat passes solves;
  let first = List.hd passes in
  let count n = float_of_int (assoc_i n first.counts) in
  let secs n = median (List.map (fun p -> assoc_f n p.seconds) passes) in
  let off n = median (List.map (assoc_f n) solves) in
  let off_count n = match solves with s :: _ -> assoc_f n s | [] -> 0. in
  let events = List.concat_map (fun p -> p.events) passes in
  let nevents = List.length first.events in
  let lat = latencies events in
  let solve_s = secs "simplex.solve" in
  let iterations = assoc_i "simplex.iterations" first.counts in
  let traced_wall = median (List.map (fun p -> p.wall) passes) in
  let untraced_wall = median !untraced_walls in
  let budget l = median (List.map (fun p -> assoc_f l p.budget) passes) in
  [
    m "builder.of_name_s" "s" (median !builder_s);
    m "offline.iterations" "count" (off_count "flexile.iterations");
    m "offline.subproblems_solved" "count" (off_count "flexile.subproblems_solved");
    m "offline.scenarios_pruned" "count" (off_count "flexile.scenarios_pruned");
    m "offline.cuts_generated" "count" (off_count "flexile.cuts_generated");
    m "offline.master_solves" "count" (off_count "flexile.master_solves");
    m "offline.sweep_s" "s" (off "flexile.subproblem_sweep");
    m "offline.master_s" "s" (off "flexile.master");
    m "simplex.cold_solves" "count" (count "simplex.cold_solves");
    m "simplex.iterations" "count" (float_of_int iterations);
    m "simplex.refactorizations" "count" (count "simplex.refactorizations");
    m "simplex.eta_updates" "count" (count "simplex.eta_updates");
    m "simplex.solve_s" "s" solve_s;
    m "simplex.factor_s" "s" (secs "simplex.factor");
    m "simplex.us_per_iter" "us"
      (let spanned = iterations - assoc_i "simplex.iterations_unspanned" first.counts in
       if spanned = 0 then 0. else 1e6 *. solve_s /. float_of_int spanned);
    m "simplex.iterations_per_solve_p50" "count" first.iterations_p50;
    m "simplex.warm_attempts" "count" (count "simplex.warm_attempts");
    m "simplex.warm_hit_ratio" "ratio"
      (ratio (assoc_i "simplex.warm_hits" first.counts) (assoc_i "simplex.warm_attempts" first.counts));
    m "scen_lp.build_ms_p50" "ms" (1e3 *. percentile !scen_lp_build_s 0.5);
    m "online.events" "count" (float_of_int nevents);
    m "online.allocate_ms_p50" "ms" (1e3 *. percentile lat 0.5);
    m "online.allocate_ms_p99" "ms" (1e3 *. percentile lat 0.99);
    m "online.maxmin_s" "s" (secs "online.maxmin-loss");
    m "online.critical_s" "s" (secs "online.critical-alloc");
    m "online.lp_solves_per_event" "count" (ratio first.online_lp_solves nevents);
    m "engine.scenarios" "count" (count "engine.scenarios");
    m "engine.kept_ratio" "ratio"
      (ratio (assoc_i "engine.scenarios_kept" first.counts) (assoc_i "engine.scenarios" first.counts));
    m "parallel.busy_frac" "ratio"
      (let sweep = secs "engine.sweep" in
       if sweep = 0. then 0. else secs "parallel.worker_busy" /. (float_of_int jobs *. sweep));
    m "parallel.imbalance_permille" "permille"
      (median (List.map (fun p -> float_of_int p.imbalance) passes));
    m "gc.minor_mwords" "Mword" (median (List.map (fun p -> p.gc_minor_words /. 1e6) passes));
    m "gc.major_collections" "count"
      (median (List.map (fun p -> float_of_int p.gc_major_collections) passes));
    m "gc.minor_mwords_per_event" "Mword"
      (median (List.map (fun e -> e.minor_words /. 1e6) events));
    m "budget.unattributed_frac" "ratio" (budget "unattributed" /. traced_wall);
    m "trace.overhead_s" "s" (traced_wall -. untraced_wall);
    m "trace.overhead_frac" "ratio" ((traced_wall -. untraced_wall) /. untraced_wall);
  ]

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun { name; value; unit_ } -> Printf.printf "  %-34s %14.6g %s\n" name value unit_) rows

(* The traced run's layer budget, the per-scheme times of the
   comparison, and the tracing overhead, for people. *)
let print_trace_report () =
  let passes = List.rev !traced_passes in
  let wall = median (List.map (fun p -> p.wall) passes) in
  Printf.printf "layer budget: median self time per traced pass (%d pass(es), %.3f s)\n"
    (List.length passes) wall;
  let total = ref 0. in
  List.iter
    (fun l ->
      let s = median (List.map (fun p -> assoc_f l p.budget) passes) in
      total := !total +. s;
      Printf.printf "  %-24s %10.4f s %6.1f%%\n" l s (100. *. s /. wall))
    budget_layers;
  Printf.printf "  %-24s %10.4f s (pass %.4f s)\n" "sum" !total wall;
  if !scheme_s <> [] then
    Printf.printf
      "  scheme.cvar_flow_st.self_s %.4f s (scheme wall - simplex.solve spans; its \
       Row_gen LP opens none)\n"
      (median (List.filter_map (fun p -> p.cvar_self) passes));
  let untraced = median !untraced_walls in
  Printf.printf "tracing overhead: traced pass %.4f s - untraced pass %.4f s = %+.4f s (%+.1f%%)\n"
    wall untraced (wall -. untraced)
    (100. *. (wall -. untraced) /. untraced)

(* Median wall time of each scheme over the untraced passes. *)
let print_schemes () =
  if !scheme_s <> [] then begin
    Printf.printf "schemes: median wall per untraced pass\n";
    List.iter
      (fun name ->
        Printf.printf "  scheme.%s_s %.4f s\n"
          (String.map (fun c -> if c = '-' then '_' else c) (String.lowercase_ascii name))
          (median (List.filter_map (fun (n, s) -> if n = name then Some s else None) !scheme_s)))
      [ "Flexile"; "SMORE"; "Teavar"; "Cvar-Flow-St" ]
  end

let json_metrics rows =
  String.concat ", "
    (List.map
       (fun { name; value; unit_ } ->
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit_)
       rows)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let workloads = [ "offline-cwix"; "failover-ibm2"; "eval-ibm-mix" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N seed of the failure-event order");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "flexbench: the Flexile end-to-end benchmark";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let traced = !trace = 1 in
  (* tracing is switched on only around traced set-up and traced
     passes, whatever FLEXILE_TRACE says *)
  Trace.set_enabled false;
  let rng = Prng.create (Int64.of_int !seed) in
  let seconds = !seconds in
  Printf.printf "flexbench workload=%s seed=%d seconds=%g trace=%d jobs=%d\n%!" !workload !seed
    seconds !trace jobs;
  (match !workload with
  | "offline-cwix" -> offline_cwix ~seconds ~traced
  | "failover-ibm2" -> failover_ibm2 ~rng ~seconds ~traced
  | _ -> eval_ibm_mix ~seconds ~traced);
  let rows = if traced then per_layer () else end_to_end () in
  print_schemes ();
  if traced then print_trace_report ();
  print_table (if traced then "per-layer metrics" else "end-to-end metrics") rows;
  if not traced then print_p99 ();
  Printf.printf "  %-34s %14.6g (%d of %d operations)\n" "failed_frac"
    (ratio !failed !attempted) !failed !attempted;
  if List.exists (fun r -> not (Float.is_finite r.value)) rows then begin
    prerr_endline "a metric is not finite";
    exit 1
  end;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed (json_metrics rows)
