(* Tests for the discretization emulator: allocation reconstruction,
   integer-weight splitting, drop fixed point, and the model-emulation
   agreement the paper reports (PCC > 0.999, Fig 9c). *)

open Flexile_te
module Emu = Flexile_emu.Emulator
module Prng = Flexile_util.Prng

let quick name f = Alcotest.test_case name `Quick f

let fig1 = Flexile_core.Builder.fig1 ()

(* the run of one seed *)
let emulate1 ?packets_per_unit seed model_losses =
  match Emu.emulate ?packets_per_unit ~seeds:[ seed ] fig1 ~model_losses with
  | [ r ] -> r
  | _ -> Alcotest.fail "one run per seed"

let test_reconstruct_feasible () =
  let model_losses = Scenbest.run fig1 in
  for sid = 0 to Instance.nscenarios fig1 - 1 do
    let alloc = Emu.reconstruct_allocation fig1 ~sid ~model_losses in
    (* allocation must deliver at least the model volume per flow *)
    Array.iter
      (fun (f : Instance.flow) ->
        if Instance.flow_connected fig1 f sid then begin
          let total =
            Array.fold_left ( +. ) 0. alloc.(f.Instance.cls).(f.Instance.pair)
          in
          let target =
            f.Instance.demand *. (1. -. model_losses.(f.Instance.fid).(sid))
          in
          if total < target -. 1e-4 then
            Alcotest.failf "scenario %d flow %d: %.4f < %.4f" sid
              f.Instance.fid total target
        end)
      fig1.Instance.flows;
    (* and respect link capacities *)
    let g = fig1.Instance.graph in
    let load = Array.make (Flexile_net.Graph.nedges g) 0. in
    Array.iteri
      (fun k per_pair ->
        Array.iteri
          (fun i per_tunnel ->
            Array.iteri
              (fun ti v ->
                if v > 0. then
                  Array.iter
                    (fun e -> load.(e) <- load.(e) +. v)
                    fig1.Instance.tunnels.(k).(i).(ti).Flexile_net.Tunnels.path)
              per_tunnel)
          per_pair)
      alloc;
    Array.iteri
      (fun e l ->
        if l > g.Flexile_net.Graph.edges.(e).Flexile_net.Graph.capacity +. 1e-4
        then Alcotest.failf "scenario %d edge %d overloaded" sid e)
      load
  done

let test_emulation_close_to_model () =
  let model_losses = (Flexile_scheme.run fig1).Flexile_scheme.losses in
  let seed = Prng.of_string "emu-test" in
  let r = emulate1 ~packets_per_unit:500 seed model_losses in
  (* Fig 9c: high correlation and small discretization error *)
  if r.Emu.pcc < 0.99 then Alcotest.failf "PCC too low: %f" r.Emu.pcc;
  if r.Emu.max_abs_diff > 0.05 then
    Alcotest.failf "max diff too large: %f" r.Emu.max_abs_diff

let test_emulation_deterministic_per_seed () =
  let model_losses = Scenbest.run fig1 in
  let run () =
    let seed = Prng.of_string "emu-fixed" in
    (emulate1 seed model_losses).Emu.emulated
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same emulated losses" true (a = b)

let test_quantization_noise_shrinks () =
  let model_losses = Scenbest.run fig1 in
  let max_diff ppu =
    let seed = Prng.of_string "emu-granularity" in
    (emulate1 ~packets_per_unit:ppu seed model_losses).Emu.max_abs_diff
  in
  let coarse = max_diff 20 and fine = max_diff 2000 in
  if fine > coarse +. 0.01 then
    Alcotest.failf "finer packets should not increase error: %f vs %f" fine
      coarse

let test_disconnected_flow_loses_everything () =
  let model_losses = Scenbest.run fig1 in
  let seed = Prng.of_string "emu-disc" in
  let r = emulate1 seed model_losses in
  Array.iter
    (fun (f : Instance.flow) ->
      for sid = 0 to Instance.nscenarios fig1 - 1 do
        if not (Instance.flow_connected fig1 f sid) then
          Alcotest.(check (float 1e-9))
            "disconnected loss" 1.
            r.Emu.emulated.(f.Instance.fid).(sid)
      done)
    fig1.Instance.flows

(* Runs that share each scenario's reconstruction are, bit for bit, the
   runs of one seed each through every scenario in order. *)
let test_runs_share_reconstruction () =
  let model_losses = (Flexile_scheme.run fig1).Flexile_scheme.losses in
  let names = [ "emu-share-1"; "emu-share-2"; "emu-share-3" ] in
  let runs =
    Emu.emulate ~seeds:(List.map Prng.of_string names) fig1 ~model_losses
  in
  Alcotest.(check int) "one run per seed" (List.length names) (List.length runs);
  List.iter2
    (fun name r ->
      let seed = Prng.of_string name in
      for sid = 0 to Instance.nscenarios fig1 - 1 do
        let alone = Emu.emulate_scenario ~seed fig1 ~sid ~model_losses in
        Array.iteri
          (fun fid v ->
            Alcotest.(check int64)
              (Printf.sprintf "%s scenario %d flow %d" name sid fid)
              (Int64.bits_of_float v)
              (Int64.bits_of_float r.Emu.emulated.(fid).(sid)))
          alone
      done)
    names runs

let () =
  Alcotest.run "flexile_emu"
    [
      ( "emulator",
        [
          quick "reconstructed allocations feasible" test_reconstruct_feasible;
          quick "emulation close to model" test_emulation_close_to_model;
          quick "deterministic per seed" test_emulation_deterministic_per_seed;
          quick "granularity shrinks noise" test_quantization_noise_shrinks;
          quick "disconnected flows lose all" test_disconnected_flow_loses_everything;
          quick "runs share reconstruction" test_runs_share_reconstruction;
        ] );
    ]
