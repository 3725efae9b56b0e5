(* Tests for the domain pool (Flexile_util.Parallel) and the scenario
   sweep engine built on it: ordered determinism under adversarial
   scheduling, exception propagation, the sequential fallback, and the
   parallel-equals-sequential contract on real solver sweeps. *)

open Flexile_te
module Parallel = Flexile_util.Parallel

let quick name f = Alcotest.test_case name `Quick f

(* Early indices sleep longest, so with any real parallelism the
   completion order inverts the index order; the result array must be
   in index order regardless. *)
let test_ordered_under_delays () =
  let n = 24 in
  let out =
    Parallel.map ~jobs:4 ~n
      ~init:(fun _ -> ())
      ~f:(fun () i ->
        Unix.sleepf (0.002 *. float_of_int (n - i));
        i * i)
      ()
  in
  Alcotest.(check (array int))
    "squares in index order"
    (Array.init n (fun i -> i * i))
    out

let test_jobs1_fallback_equivalence () =
  let f () i = (7 * i) + (i mod 3) in
  let seq = Parallel.map ~jobs:1 ~n:50 ~init:(fun _ -> ()) ~f () in
  let par = Parallel.map ~jobs:4 ~n:50 ~init:(fun _ -> ()) ~f () in
  Alcotest.(check (array int)) "jobs=1 equals jobs=4" seq par

(* Static cyclic sharding: worker [w] owns exactly the indices
   [i mod jobs = w], so per-worker state is a deterministic function of
   the index. *)
let test_static_sharding_contract () =
  let jobs = 4 in
  let out =
    Parallel.map ~jobs ~n:23 ~init:(fun w -> w) ~f:(fun w _ -> w) ()
  in
  Array.iteri
    (fun i w -> Alcotest.(check int) (Printf.sprintf "slot of %d" i) (i mod jobs) w)
    out;
  (* each worker visits its shard in ascending order *)
  let seen = Array.make jobs (-1) in
  let out =
    Parallel.map ~jobs ~n:23
      ~init:(fun w -> w)
      ~f:(fun w i ->
        let prev = seen.(w) in
        seen.(w) <- i;
        prev)
      ()
  in
  Array.iteri
    (fun i prev ->
      let expect = if i < jobs then -1 else i - jobs in
      Alcotest.(check int) (Printf.sprintf "predecessor of %d" i) expect prev)
    out

exception Boom of int

let test_exception_propagation () =
  (* index 13 lands on worker slot 13 mod 4 = 1, a spawned domain *)
  Alcotest.check_raises "worker exception reaches the caller" (Boom 13)
    (fun () ->
      ignore
        (Parallel.map ~jobs:4 ~n:20
           ~init:(fun _ -> ())
           ~f:(fun () i -> if i = 13 then raise (Boom i) else i)
           ()));
  (* and from the sequential fallback too *)
  Alcotest.check_raises "sequential exception" (Boom 3) (fun () ->
      ignore
        (Parallel.map ~jobs:1 ~n:5
           ~init:(fun _ -> ())
           ~f:(fun () i -> if i = 3 then raise (Boom i) else i)
           ()))

let test_resolve_jobs () =
  Alcotest.(check int) "explicit" 5 (Parallel.resolve_jobs (Some 5));
  Alcotest.(check int) "clamped" 64 (Parallel.resolve_jobs (Some 1000));
  Alcotest.(check bool) "auto is positive" true (Parallel.resolve_jobs None >= 1);
  Alcotest.(check int) "zero means auto"
    (Parallel.resolve_jobs None)
    (Parallel.resolve_jobs (Some 0))

(* FLEXILE_JOBS, when "auto" reads it: a positive integer, or unset or
   empty; anything else is an error naming the value *)
let test_env_jobs () =
  let saved = Option.value ~default:"" (Sys.getenv_opt "FLEXILE_JOBS") in
  Fun.protect ~finally:(fun () -> Unix.putenv "FLEXILE_JOBS" saved) @@ fun () ->
  Unix.putenv "FLEXILE_JOBS" "3";
  Alcotest.(check int) "read by auto" 3 (Parallel.resolve_jobs None);
  Alcotest.(check int) "explicit wins" 5 (Parallel.resolve_jobs (Some 5));
  List.iter
    (fun bad ->
      Unix.putenv "FLEXILE_JOBS" bad;
      match Parallel.resolve_jobs None with
      | j -> Alcotest.failf "FLEXILE_JOBS=%S resolved to %d" bad j
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S named in %S" bad msg)
            true
            (String.starts_with ~prefix:(Printf.sprintf "FLEXILE_JOBS=%S" bad) msg))
    [ "abc"; "0"; "-2"; "2x" ];
  Unix.putenv "FLEXILE_JOBS" "";
  Alcotest.(check bool) "empty means auto" true (Parallel.resolve_jobs None >= 1)

(* every map counts one parallel.maps, fan-out or not, so the counter
   of a traced solve is the same at every job count *)
let test_maps_counted_per_call () =
  let module Trace = Flexile_util.Trace in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) @@ fun () ->
  let maps jobs =
    Trace.reset ();
    List.iter
      (fun n -> ignore (Parallel.map ~jobs ~n ~init:ignore ~f:(fun () i -> i) ()))
      [ 0; 1; 5 ];
    let direct = Trace.value_by_name "parallel.maps" in
    Trace.reset ();
    ignore
      (Flexile_offline.solve
         ~config:{ Flexile_offline.default_config with Flexile_offline.jobs }
         (Flexile_core.Builder.fig1 ()));
    (direct, Trace.value_by_name "parallel.maps")
  in
  let direct, solve = maps 1 in
  Alcotest.(check int) "three calls, three maps" 3 direct;
  Alcotest.(check bool) "the solve maps" true (solve > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "jobs %d = jobs 1" jobs)
        (direct, solve) (maps jobs))
    [ 2; 4 ]

(* ---- the engine on real instances ---- *)

let losses_testable =
  Alcotest.(array (array (float 0.)))

let test_scenbest_bit_identical () =
  let inst = Flexile_core.Builder.fig1 () in
  let seq = Scenbest.run ~jobs:1 inst in
  let par = Scenbest.run ~jobs:3 inst in
  Alcotest.check losses_testable "ScenBest parallel == sequential" seq par

(* Sprint with per-scenario demand factors: every subproblem rewrites
   the loss coefficient of the flows whose demand drifted. *)
let drift_instance () =
  let options =
    {
      Flexile_core.Builder.default_options with
      Flexile_core.Builder.scenario_mix = "srlg,partial,drift";
      max_scenarios = 16;
      max_pairs = 16;
    }
  in
  let inst = Flexile_core.Builder.of_name ~options "Sprint" in
  if inst.Instance.demand_factors = None then
    Alcotest.fail "drift mix should attach demand factors";
  inst

(* The whole plan — criticality, losses, penalty, master bound and
   subproblem count — is bit-identical at jobs 1, 2 and 4. *)
let test_offline_bit_identical () =
  let check name inst =
    let solve jobs =
      let config =
        { Flexile_offline.default_config with Flexile_offline.jobs }
      in
      let r = Flexile_offline.solve ~config inst in
      let best = r.Flexile_offline.best in
      ( best.Flexile_offline.z,
        best.Flexile_offline.losses,
        best.Flexile_offline.penalty,
        r.Flexile_offline.lower_bound,
        r.Flexile_offline.subproblems_solved )
    in
    let z1, l1, p1, b1, n1 = solve 1 in
    List.iter
      (fun jobs ->
        let z, l, p, b, n = solve jobs in
        let what s = Printf.sprintf "%s: %s at jobs=%d" name s jobs in
        Alcotest.(check (array (array bool))) (what "z identical") z1 z;
        Alcotest.check losses_testable (what "losses identical") l1 l;
        Alcotest.(check (float 0.)) (what "penalty identical") p1 p;
        Alcotest.(check (float 0.)) (what "lower bound identical") b1 b;
        Alcotest.(check int) (what "same subproblem count") n1 n)
      [ 2; 4 ]
  in
  check "fig1" (Flexile_core.Builder.fig1 ());
  check "Sprint drift" (drift_instance ())

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          quick "ordered-under-delays" test_ordered_under_delays;
          quick "jobs1-fallback" test_jobs1_fallback_equivalence;
          quick "static-sharding" test_static_sharding_contract;
          quick "exception-propagation" test_exception_propagation;
          quick "resolve-jobs" test_resolve_jobs;
          quick "flexile-jobs-env" test_env_jobs;
          quick "maps-counted-per-call" test_maps_counted_per_call;
        ] );
      ( "engine",
        [
          quick "scenbest-bit-identical" test_scenbest_bit_identical;
          quick "offline-bit-identical" test_offline_bit_identical;
        ] );
    ]
