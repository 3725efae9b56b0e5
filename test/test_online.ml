(* The online allocator restarts every scenario's max-min from the
   instance's nominal basis.  These tests hold it to a cold solve of the
   same configured template (the oracle), to purity (an allocation
   depends only on instance, scenario and frozen set) and to the warm
   counter accounting the benchmark reads. *)

open Flexile_te
module Builder = Flexile_core.Builder
module Trace = Flexile_util.Trace

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

let test_oracle_online mk name () =
  let inst = mk () in
  let p = plan inst in
  check_against_cold name inst ~warm:(online inst p) ~cold:(fun sid ->
      Scen_lp.maxmin_losses_cold inst ~sid ~class_order:(all_classes inst)
        ~prefrozen:(prefrozen inst p sid) ())

let maxmin ~cold = if cold then Scen_lp.maxmin_losses_cold else Scen_lp.maxmin_losses

let test_oracle_swan () =
  let inst = ibm2 () in
  let run cold sid = maxmin ~cold inst ~sid ~class_order:(all_classes inst) ~freeze_routing:true () in
  check_against_cold "SWAN freeze_routing" inst ~warm:(run false) ~cold:(run true)

let test_oracle_scenbest () =
  let inst = ibm_mix () in
  let run cold sid = maxmin ~cold inst ~sid ~class_order:(all_classes inst) ~merge_classes:true () in
  check_against_cold "ScenBest merge_classes" inst ~warm:(run false) ~cold:(run true)

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
      ("purity", [ quick "order, repeat and job count" test_purity ]);
      ("template", [ quick "compiled once at jobs 2" test_compile_once ]);
      ( "counters",
        [
          quick "hits + fallbacks = attempts" test_counters;
          quick "SWAN-Throughput never falls back" test_throughput_restarts;
        ] );
    ]
