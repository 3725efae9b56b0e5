(* A two-traffic-class WAN (the §6.1 emulation setup, scaled down):
   latency-sensitive traffic with a tight availability target plus
   elastic low-priority traffic at 99%, on the IBM topology.  Compares
   Flexile against both SWAN variants and validates the model against
   the discretization emulator (Fig 9a / 9c).

   Run with: dune exec examples/two_class_wan.exe *)

open Flexile_te

let pct x = 100. *. x

let () =
  let options =
    { Flexile_core.Builder.default_options with Flexile_core.Builder.max_scenarios = 50 }
  in
  let inst = Flexile_core.Builder.of_name ~options ~two_classes:true "IBM" in
  Printf.printf
    "IBM topology, two classes: %d flows, %d scenarios, high beta=%.4f low beta=%.2f\n\n"
    (Instance.nflows inst) (Instance.nscenarios inst)
    inst.Instance.classes.(0).Instance.beta
    inst.Instance.classes.(1).Instance.beta;

  let report name losses =
    Printf.printf "%-16s high PercLoss = %5.1f%%   low PercLoss = %5.1f%%\n" name
      (pct (Metrics.perc_loss inst losses ~cls:0))
      (pct (Metrics.perc_loss inst losses ~cls:1))
  in
  let fx = Flexile_scheme.run inst in
  report "Flexile" fx.Flexile_scheme.losses;
  report "SWAN-Maxmin" (Swan.run_maxmin inst);
  report "SWAN-Throughput" (Swan.run_throughput inst);
  report "ScenBest-Multi" (Scenbest.run_multi inst);

  (* emulate Flexile's allocation with OvS-style integer weights *)
  Printf.printf "\nemulating Flexile with integer select-group weights (5 runs):\n";
  let seeds =
    List.init 5 (fun i ->
        Flexile_util.Prng.of_string (Printf.sprintf "two-class-emu-%d" (i + 1)))
  in
  Flexile_emu.Emulator.emulate ~seeds inst ~model_losses:fx.Flexile_scheme.losses
  |> List.iteri (fun i r ->
         Printf.printf
           "  run %d: PCC=%.6f  max |emulated - model| = %.2f%%  high=%.2f%% low=%.2f%%\n"
           (i + 1) r.Flexile_emu.Emulator.pcc
           (pct r.Flexile_emu.Emulator.max_abs_diff)
           (pct (Metrics.perc_loss inst r.Flexile_emu.Emulator.emulated ~cls:0))
           (pct (Metrics.perc_loss inst r.Flexile_emu.Emulator.emulated ~cls:1)))
