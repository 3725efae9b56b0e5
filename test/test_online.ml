(* The online allocator restarts every scenario's max-min from the
   instance's nominal basis, on a copy of one state factored there.
   These tests hold it to a cold solve of the same configured template
   (the oracle), bit for bit to the restart that factored the nominal
   basis per scenario (Online_restart_ref), to purity (an allocation
   depends only on instance, scenario and frozen set, and never writes
   the shared nominal state) and to the warm counter accounting the
   benchmark reads. *)

open Flexile_te
module Builder = Flexile_core.Builder
module Trace = Flexile_util.Trace
module Prng = Flexile_util.Prng

let quick name f = Alcotest.test_case name `Quick f

let options mix =
  { Builder.default_options with Builder.max_scenarios = 40; max_pairs = 60; scenario_mix = mix }

(* Every case builds its own instance, so no test sees a template that
   another test already compiled. *)
let ibm2 () = Builder.of_name ~options:(options "independent") ~two_classes:true "IBM"
let ibm_mix () = Builder.of_name ~options:(options "srlg,partial") "IBM"
let ibm_drift () = Builder.of_name ~options:(options "drift") ~two_classes:true "IBM"

let offline inst =
  Flexile_offline.solve
    ~config:{ Flexile_offline.default_config with Flexile_offline.max_iterations = 1; jobs = 1 }
    inst

let plan inst = (offline inst).Flexile_offline.best

let all_classes inst = List.init (Array.length inst.Instance.classes) Fun.id

(* Flexile_online.allocate's arguments to the max-min: critical flows
   capped at their offline loss *)
let prefrozen inst (p : Flexile_offline.iterate) sid =
  Array.to_list inst.Instance.flows
  |> List.filter_map (fun (f : Instance.flow) ->
         let fid = f.Instance.fid in
         if f.Instance.demand > 0. && p.Flexile_offline.z.(fid).(sid) then
           Some (fid, Float.min 1. (p.Flexile_offline.losses.(fid).(sid) +. 1e-7))
         else None)

let online inst p sid =
  Flexile_online.allocate inst ~sid
    ~critical:(fun fid -> p.Flexile_offline.z.(fid).(sid))
    ~offline_loss:(fun fid -> p.Flexile_offline.losses.(fid).(sid))

(* The loss matrix of per-scenario allocations, as the schemes report
   it: zero-demand flows at 0, allocated flows clamped to [0,1]. *)
let matrix inst alloc =
  let losses = Instance.alloc_losses inst in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand <= 0. then
        Array.fill losses.(f.Instance.fid) 0 (Instance.nscenarios inst) 0.)
    inst.Instance.flows;
  for sid = 0 to Instance.nscenarios inst - 1 do
    List.iter
      (fun (fid, l) -> losses.(fid).(sid) <- Float.max 0. (Float.min 1. l))
      (alloc sid)
  done;
  losses

(* ---- oracle: warm restarts vs cold solves of the same template ---- *)

let check_against_cold name inst ~warm ~cold =
  let w = matrix inst warm and c = matrix inst cold in
  let worst = ref 0. in
  Array.iteri
    (fun fid row ->
      Array.iteri (fun sid l -> worst := Float.max !worst (Float.abs (l -. c.(fid).(sid)))) row)
    w;
  if !worst > 1e-6 then Alcotest.failf "%s: per-flow losses differ by %g" name !worst;
  let pw = Metrics.total_weighted_penalty inst w
  and pc = Metrics.total_weighted_penalty inst c in
  if Float.abs (pw -. pc) > 1e-9 then
    Alcotest.failf "%s: weighted penalty %.12g warm vs %.12g cold" name pw pc

let cold_maxmin ?(merge_classes = false) ?(freeze_routing = false) ?(prefrozen = []) inst sid =
  Online_restart_ref.maxmin_losses ~cold:true inst ~sid ~class_order:(all_classes inst)
    ~merge_classes ~freeze_routing ~prefrozen ~duals:ignore

let test_oracle_online mk name () =
  let inst = mk () in
  let p = plan inst in
  check_against_cold name inst ~warm:(online inst p) ~cold:(fun sid ->
      cold_maxmin ~prefrozen:(prefrozen inst p sid) inst sid)

let test_oracle_swan () =
  let inst = ibm2 () in
  check_against_cold "SWAN freeze_routing" inst
    ~warm:(fun sid ->
      Scen_lp.maxmin_losses inst ~sid ~class_order:(all_classes inst) ~freeze_routing:true ())
    ~cold:(cold_maxmin ~freeze_routing:true inst)

let test_oracle_scenbest () =
  let inst = ibm_mix () in
  check_against_cold "ScenBest merge_classes" inst
    ~warm:(fun sid ->
      Scen_lp.maxmin_losses inst ~sid ~class_order:(all_classes inst) ~merge_classes:true ())
    ~cold:(cold_maxmin ~merge_classes:true inst)

(* ---- purity: (instance, scenario, frozen set) -> allocation ---- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_identical what (l1, d1) (l2, d2) =
  let rows_eq r1 r2 = Array.length r1 = Array.length r2 && Array.for_all2 same_bits r1 r2 in
  if not (Array.length l1 = Array.length l2 && Array.for_all2 rows_eq l1 l2) then
    Alcotest.failf "%s: loss matrices differ" what;
  let duals_eq a b =
    List.length a = List.length b
    && List.for_all2 (fun (e1, v1) (e2, v2) -> e1 = e2 && same_bits v1 v2) a b
  in
  if not (Array.length d1 = Array.length d2 && Array.for_all2 duals_eq d1 d2) then
    Alcotest.failf "%s: dual lists differ" what

(* Allocates every scenario once in [order] on [inst], capturing each
   scenario's binding edges. *)
let allocate_in inst p order =
  let ns = Instance.nscenarios inst in
  let fl = Array.make ns [] and duals = Array.make ns [] in
  List.iter
    (fun sid ->
      fl.(sid) <-
        Flexile_online.allocate
          ~duals:(fun d -> duals.(sid) <- d)
          inst ~sid
          ~critical:(fun fid -> p.Flexile_offline.z.(fid).(sid))
          ~offline_loss:(fun fid -> p.Flexile_offline.losses.(fid).(sid)))
    order;
  (matrix inst (fun sid -> fl.(sid)), duals)

let test_purity () =
  let fresh = ibm2 in
  let inst = fresh () in
  let offline = offline inst in
  let p = offline.Flexile_offline.best in
  let ns = Instance.nscenarios inst in
  let ascending = List.init ns Fun.id in
  let shuffled =
    let a = Array.of_list ascending in
    Flexile_util.Prng.shuffle (Flexile_util.Prng.create 11L) a;
    Array.to_list a
  in
  let reference = allocate_in inst p ascending in
  check_identical "repeat call" reference (allocate_in inst p ascending);
  (* another instance of the same topology: its template is compiled
     by whichever scenario comes first *)
  check_identical "shuffled order" reference (allocate_in (fresh ()) p shuffled);
  List.iter
    (fun jobs ->
      check_identical
        (Printf.sprintf "run_with_duals at jobs %d" jobs)
        reference
        (Flexile_online.run_with_duals ~jobs (fresh ()) ~offline))
    [ 1; 2 ]

(* ---- bit identity: copies of the nominal state vs seeded states ---- *)

(* The solver work compared between the two restarts: every count the
   benchmark gates except refactorizations (the seeded restart factors
   the nominal basis once more per solver state), and the histogram of
   iterations per solve. *)
let work_counters =
  [ "simplex.iterations"; "simplex.eta_updates"; "simplex.warm_attempts"; "simplex.warm_hits";
    "simplex.warm_fallbacks"; "simplex.cold_solves"; "simplex.basis_repairs" ]

let traced f =
  Trace.reset ();
  let v = f () in
  (v, List.map Trace.value_by_name work_counters,
   Trace.hist_snapshot_by_name "simplex.iterations_per_solve")

let same_hist (a : Trace.hist_snapshot) (b : Trace.hist_snapshot) =
  a.Trace.hist_count = b.Trace.hist_count
  && same_bits a.Trace.hist_sum b.Trace.hist_sum
  && same_bits a.Trace.hist_min b.Trace.hist_min
  && same_bits a.Trace.hist_max b.Trace.hist_max
  && a.Trace.hist_buckets = b.Trace.hist_buckets

(* [reference] ran [Online_restart_ref]: its per-solve iteration counts
   must be the ones the histograms of both runs hold. *)
let same_run ~same (v1, c1, h1) (v2, c2, h2) =
  let its = !Online_restart_ref.solves in
  same v1 v2 && c1 = c2 && same_hist h1 h2
  && h2.Trace.hist_count = List.length its
  && same_bits h2.Trace.hist_sum (float_of_int (List.fold_left ( + ) 0 its))

let reference f =
  traced (fun () ->
      Online_restart_ref.solves := [];
      f ())

let same_pairs a b =
  List.length a = List.length b
  && List.for_all2 (fun (i1, v1) (i2, v2) -> i1 = i2 && same_bits v1 v2) a b

let same_matrix a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun r1 r2 -> Array.length r1 = Array.length r2 && Array.for_all2 same_bits r1 r2) a b

(* B4, IBM and Sprint, with one class and two, under the independent,
   srlg,partial and drift mixes (drift's demand factors change
   coefficients, so some copies refactor), built once each *)
let restart_keys =
  Array.of_list
    (List.concat_map
       (fun topo ->
         List.concat_map
           (fun two -> List.map (fun mix -> (topo, two, mix)) [ "independent"; "srlg,partial"; "drift" ])
           [ false; true ])
       [ "B4"; "IBM"; "Sprint" ])

let restart_instances = Hashtbl.create 18

let restart_instance k =
  let ((topo, two, mix) as key) = restart_keys.(k) in
  match Hashtbl.find_opt restart_instances key with
  | Some inst -> inst
  | None ->
      let options =
        { Builder.default_options with Builder.max_scenarios = 20; max_pairs = 40; scenario_mix = mix }
      in
      let inst = Builder.of_name ~options ~two_classes:two topo in
      (* the template's nominal solve is not part of any restart *)
      ignore (Scen_lp.build inst ~sid:0);
      Hashtbl.add restart_instances key inst;
      inst

(* A case's drawn class order and, per scenario, its random caps on
   random flows. *)
let restart_draws (k, salt) =
  let inst = restart_instance k in
  let prng = Prng.of_string (Printf.sprintf "restart-%d" salt) in
  let classes = Array.of_list (all_classes inst) in
  Prng.shuffle prng classes;
  let prefrozen =
    Array.init (Instance.nscenarios inst) (fun _ ->
        Array.to_list inst.Instance.flows
        |> List.filter_map (fun (f : Instance.flow) ->
               if f.Instance.demand > 0. && Prng.bool prng 0.25 then
                 Some (f.Instance.fid, Prng.uniform prng 0. 1.2)
               else None))
  in
  (inst, Array.to_list classes, prefrozen)

(* Every scenario of the instance: the max-min under a random class
   order, random caps on random flows and the drawn merge and freeze
   options, with its captured duals; every class optimum; and
   SWAN-Throughput's loss matrix. *)
let restart_case (k, salt, merge_classes, freeze_routing) =
  let inst, class_order, drawn = restart_draws (k, salt) in
  let ok = ref true in
  for sid = 0 to Instance.nscenarios inst - 1 do
    let prefrozen = drawn.(sid) in
    let production =
      traced (fun () ->
          let duals = ref [] in
          let r =
            Scen_lp.maxmin_losses inst ~sid ~class_order ~merge_classes ~freeze_routing ~prefrozen
              ~duals:(fun d -> duals := d)
              ()
          in
          (r, !duals))
    in
    let seeded =
      reference (fun () ->
          let duals = ref [] in
          let r =
            Online_restart_ref.maxmin_losses inst ~sid ~class_order ~merge_classes ~freeze_routing
              ~prefrozen ~duals:(fun d -> duals := d)
          in
          (r, !duals))
    in
    ok :=
      !ok
      && same_run production seeded ~same:(fun (r1, d1) (r2, d2) -> same_pairs r1 r2 && same_pairs d1 d2);
    List.iter
      (fun cls ->
        ok :=
          !ok
          && same_run ~same:same_bits
               (traced (fun () -> Scen_lp.class_optimum inst ~sid ~cls))
               (reference (fun () -> Online_restart_ref.class_optimum inst ~sid ~cls)))
      class_order
  done;
  !ok
  && same_run ~same:same_matrix
       (traced (fun () -> Swan.run_throughput ~jobs:1 inst))
       (reference (fun () ->
            matrix inst (fun sid -> Online_restart_ref.throughput_scenario inst sid)))

let restart_case_traced case =
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () -> restart_case case

let qcheck_restart_bits =
  QCheck.Test.make ~name:"online restart bits = reference" ~count:60
    QCheck.(
      make
        ~print:(fun (k, salt, merge, freeze) ->
          let topo, two, mix = restart_keys.(k) in
          Printf.sprintf "%s two_classes=%b mix=%s salt=%d merge=%b freeze=%b" topo two mix salt
            merge freeze)
        Gen.(quad (int_bound (Array.length restart_keys - 1)) (int_bound 1_000_000) bool bool))
    restart_case_traced

(* A drawn case (merged classes, frozen routing) whose scenario 13
   max-mins a 79-flow class group in 13 levels: past twelve levels the
   restarts still equal the reference bit for bit, and their losses
   are those of cold solves. *)
let test_restart_many_levels () =
  let k = ref (-1) in
  Array.iteri (fun i key -> if key = ("IBM", true, "srlg,partial") then k := i) restart_keys;
  let salt = 687709 in
  Online_restart_ref.levels := [];
  if not (restart_case_traced (!k, salt, true, true)) then
    Alcotest.fail "IBM two-class srlg,partial salt 687709: restarts differ from the reference";
  let most = List.fold_left max 0 !Online_restart_ref.levels in
  if most <= 12 then Alcotest.failf "the longest class group took %d levels, not more than 12" most;
  let inst, class_order, prefrozen = restart_draws (!k, salt) in
  let warm sid =
    Scen_lp.maxmin_losses inst ~sid ~class_order ~merge_classes:true ~freeze_routing:true
      ~prefrozen:prefrozen.(sid) ()
  and cold sid =
    Online_restart_ref.maxmin_losses ~cold:true inst ~sid ~class_order ~merge_classes:true
      ~freeze_routing:true ~prefrozen:prefrozen.(sid) ~duals:ignore
  in
  check_against_cold "salt 687709" inst ~warm ~cold

(* The refactor-on-coefficient branch runs: on IBM drift some copies
   refactor.  A seeded restart factors once per solver state, a copy
   only there, and both solve with the same other refactorizations. *)
let test_copies_refactor () =
  let inst = ibm_drift () in
  ignore (Scen_lp.build inst ~sid:0);
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let refactorizations f =
    Trace.reset ();
    f ();
    Trace.value_by_name "simplex.refactorizations"
  in
  let order = all_classes inst in
  let ns = Instance.nscenarios inst in
  let copies =
    refactorizations (fun () ->
        for sid = 0 to ns - 1 do
          ignore (Scen_lp.maxmin_losses inst ~sid ~class_order:order ())
        done)
  and seeded =
    refactorizations (fun () ->
        for sid = 0 to ns - 1 do
          ignore
            (Online_restart_ref.maxmin_losses inst ~sid ~class_order:order ~merge_classes:false
               ~freeze_routing:false ~prefrozen:[] ~duals:ignore)
        done)
  in
  let refactored = ns - (seeded - copies) in
  if refactored <= 0 || refactored >= ns then
    Alcotest.failf "%d of %d copies refactored (%d vs %d refactorizations)" refactored ns copies
      seeded

(* ---- the nominal state is read-only across domains ---- *)

(* Copies of one nominal state solve every scenario on 1, 2 and 4
   domains: the allocations are bit-identical at every job count, and
   a digest of everything reachable from the nominal state (every
   array of it, its factors and its model) is the same before and
   after. *)
let test_nominal_read_only () =
  let inst = ibm_drift () in
  let nominal = (Scen_lp.build inst ~sid:0).Scen_lp.nominal in
  let digest () = Digest.to_hex (Digest.string (Marshal.to_string nominal [ Marshal.Closures ])) in
  let before = digest () in
  let order = all_classes inst in
  let run jobs =
    let per_sid =
      Flexile_util.Parallel.map ~jobs ~n:(Instance.nscenarios inst) ~init:ignore
        ~f:(fun () sid ->
          let duals = ref [] in
          let r =
            Scen_lp.maxmin_losses inst ~sid ~class_order:(List.rev order)
              ~duals:(fun d -> duals := d)
              ()
          in
          (r, !duals, List.map (fun cls -> Scen_lp.class_optimum inst ~sid ~cls) order))
        ()
    in
    (per_sid, Swan.run_throughput ~jobs inst)
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      let per_sid, swan = run jobs in
      Array.iteri
        (fun sid (r, d, opt) ->
          let r0, d0, opt0 = (fst reference).(sid) in
          if not (same_pairs r r0 && same_pairs d d0 && List.for_all2 same_bits opt opt0) then
            Alcotest.failf "scenario %d differs at jobs %d" sid jobs)
        per_sid;
      if not (same_matrix swan (snd reference)) then
        Alcotest.failf "SWAN-Throughput differs at jobs %d" jobs)
    [ 2; 4 ];
  Alcotest.(check string) "nominal state digest" before (digest ())

(* ---- the template is compiled once per instance ---- *)

(* With jobs 2 both workers' first scenarios need the template of a
   fresh instance at once.  Only one of them may compile it (the
   nominal solve counts pivots and refactorizations): the solver work
   of a sweep is the same at jobs 1 and 2, and does not depend on how
   the two domains interleave. *)
let test_compile_once () =
  let offline = offline (ibm2 ()) in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let names =
    Trace.registry ()
    |> List.filter_map (fun (n, kind) ->
           if kind = Trace.Counter && String.starts_with ~prefix:"simplex." n then Some n
           else None)
  in
  let sweep jobs =
    let before = List.map Trace.value_by_name names in
    ignore (Flexile_online.run_with_duals ~jobs (ibm2 ()) ~offline);
    List.map2 (fun n b -> (n, Trace.value_by_name n - b)) names before
  in
  let reference = sweep 1 in
  List.iter
    (fun jobs ->
      List.iter2
        (fun (n, a) (_, b) ->
          if a <> b then Alcotest.failf "%s: %d at jobs 1, %d at jobs %d" n a b jobs)
        reference (sweep jobs))
    [ 2; 2 ]

(* ---- the warm counters add up ---- *)

let test_counters () =
  let inst = ibm2 () in
  let p = plan inst in
  (* compile the template and its nominal basis before counting *)
  ignore (online inst p 0);
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let names =
    [ "simplex.warm_attempts"; "simplex.warm_hits"; "simplex.warm_fallbacks"; "simplex.cold_solves" ]
  in
  let before = List.map Trace.value_by_name names in
  for sid = 0 to Instance.nscenarios inst - 1 do
    if Instance.regime inst ~sid <> "nominal" then ignore (online inst p sid)
  done;
  match List.map2 (fun n b -> Trace.value_by_name n - b) names before with
  | [ attempts; hits; fallbacks; colds ] ->
      if attempts = 0 then Alcotest.fail "no warm restart was attempted";
      Alcotest.(check int) "hits + fallbacks = attempts" attempts (hits + fallbacks);
      if colds < fallbacks then
        Alcotest.failf "%d fallbacks but only %d cold solves" fallbacks colds
  | _ -> assert false

(* SWAN-Throughput first restarts under the scenario's bounds, then
   changes only costs: no restart of a failure sweep falls back cold. *)
let test_throughput_restarts () =
  let inst = ibm2 () in
  ignore (Scen_lp.build inst ~sid:0);
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was) @@ fun () ->
  let attempts = Trace.value_by_name "simplex.warm_attempts"
  and fallbacks = Trace.value_by_name "simplex.warm_fallbacks" in
  ignore (Swan.run_throughput ~jobs:1 inst);
  if Trace.value_by_name "simplex.warm_attempts" = attempts then
    Alcotest.fail "no warm restart was attempted";
  Alcotest.(check int) "fallbacks" 0 (Trace.value_by_name "simplex.warm_fallbacks" - fallbacks)

let () =
  Alcotest.run "flexile_online"
    [
      ( "oracle",
        [
          quick "IBM two-class online" (test_oracle_online ibm2 "IBM two-class");
          quick "IBM srlg,partial online" (test_oracle_online ibm_mix "IBM srlg,partial");
          quick "IBM drift online" (test_oracle_online ibm_drift "IBM drift");
          quick "SWAN freeze_routing" test_oracle_swan;
          quick "ScenBest merge_classes" test_oracle_scenbest;
        ] );
      ( "restart",
        Fuzz.to_alcotest qcheck_restart_bits
        :: [
             quick "past twelve levels = reference and cold" test_restart_many_levels;
             quick "demand factors refactor some copies" test_copies_refactor;
             quick "nominal state read-only at jobs 1, 2, 4" test_nominal_read_only;
           ] );
      ("purity", [ quick "order, repeat and job count" test_purity ]);
      ("template", [ quick "compiled once at jobs 2" test_compile_once ]);
      ( "counters",
        [
          quick "hits + fallbacks = attempts" test_counters;
          quick "SWAN-Throughput never falls back" test_throughput_restarts;
        ] );
    ]
