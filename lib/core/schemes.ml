open Flexile_te

type t =
  | Flexile
  | Smore
  | Scenbest_multi
  | Teavar
  | Cvar_flow_st
  | Cvar_flow_ad
  | Swan_maxmin
  | Swan_throughput
  | Ffc
  | Ip

let name = function
  | Flexile -> "Flexile"
  | Smore -> "SMORE"
  | Scenbest_multi -> "ScenBest-Multi"
  | Teavar -> "Teavar"
  | Cvar_flow_st -> "Cvar-Flow-St"
  | Cvar_flow_ad -> "Cvar-Flow-Ad"
  | Swan_maxmin -> "SWAN-Maxmin"
  | Swan_throughput -> "SWAN-Throughput"
  | Ffc -> "FFC"
  | Ip -> "IP"

let all =
  [
    Flexile;
    Smore;
    Scenbest_multi;
    Teavar;
    Cvar_flow_st;
    Cvar_flow_ad;
    Swan_maxmin;
    Swan_throughput;
    Ffc;
    Ip;
  ]

exception Timeout of t

(* Rough size guards mirroring the paper's TLE rows: past these sizes
   a scheme is reported as timed out instead of being run. *)
let cvar_ad_rows inst =
  Flexile_net.Graph.nedges inst.Instance.graph * Instance.nscenarios inst

let ip_binaries inst = Instance.nflows inst * Instance.nscenarios inst

module Trace = Flexile_util.Trace

(* GC accounting per scheme run (quick_stat deltas for the calling
   domain): allocation regressions surface in the registry dump next
   to wall times.  The per-run deltas also ride on each "scheme.<Name>"
   span record, so the Chrome trace shows words allocated per run. *)
let c_gc_minor = Trace.counter "gc.minor_words"
let c_gc_major = Trace.counter "gc.major_words"
let c_gc_promoted = Trace.counter "gc.promoted_words"
let c_gc_major_collections = Trace.counter "gc.major_collections"
let c_gc_minor_collections = Trace.counter "gc.minor_collections"
let c_gc_compactions = Trace.counter "gc.compactions"

let with_gc_accounting f =
  if not (Trace.enabled ()) then f ()
  else begin
    (* Gc.minor_words, not quick_stat's minor_words: the latter only
       advances at minor-collection boundaries and reads zero for runs
       that fit in the nursery. *)
    let m0 = Gc.minor_words () in
    let g0 = Gc.quick_stat () in
    let finish () =
      let m1 = Gc.minor_words () in
      let g1 = Gc.quick_stat () in
      Trace.add c_gc_minor (int_of_float (m1 -. m0));
      Trace.add c_gc_major
        (int_of_float (g1.Gc.major_words -. g0.Gc.major_words));
      Trace.add c_gc_promoted
        (int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words));
      Trace.add c_gc_major_collections
        (g1.Gc.major_collections - g0.Gc.major_collections);
      Trace.add c_gc_minor_collections
        (g1.Gc.minor_collections - g0.Gc.minor_collections);
      Trace.add c_gc_compactions (g1.Gc.compactions - g0.Gc.compactions)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* one wall-clock span per scheme, e.g. "scheme.Flexile" (spans double
   as timers, so per-scheme totals still appear in the registry dump);
   registration is idempotent so looking the handle up per run is fine
   (run is called a handful of times per figure, never in an inner
   loop) *)
let run ?(jobs = 0) scheme inst =
  with_gc_accounting @@ fun () ->
  Trace.in_span
    (Trace.span ("scheme." ^ name scheme))
    (fun () ->
      match scheme with
      | Flexile ->
          let config = { Flexile_offline.default_config with jobs } in
          (Flexile_scheme.run ~config inst).Flexile_scheme.losses
      | Smore -> Scenbest.run ~jobs inst
      | Scenbest_multi -> Scenbest.run_multi ~jobs inst
      | Teavar ->
          if cvar_ad_rows inst > 400_000 then
            raise (Timeout scheme);
          (Teavar.run ~jobs inst).Teavar.losses
      | Cvar_flow_st ->
          if Instance.nflows inst * Instance.nscenarios inst > 60_000 then
            raise (Timeout scheme);
          (Cvar_flow.run_static ~jobs inst).Cvar_flow.losses
      | Cvar_flow_ad ->
          if cvar_ad_rows inst > 2_500 then
            raise (Timeout scheme);
          (Cvar_flow.run_adaptive ~jobs inst).Cvar_flow.losses
      | Swan_maxmin -> Swan.run_maxmin ~jobs inst
      | Swan_throughput -> Swan.run_throughput ~jobs inst
      | Ffc -> (Ffc.run ~jobs inst).Ffc.losses
      | Ip ->
          if ip_binaries inst > 4_000 then raise (Timeout scheme);
          (Ip_direct.solve ~jobs inst).Ip_direct.losses)
