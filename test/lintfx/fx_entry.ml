(* Entry layer: these are the roots the fixture test seeds the taint
   walk with (roots = ["Flexile_lintfx.Fx_entry"]). *)

(* i1 positive: drive -> pick -> noise is a two-hop chain to the RNG *)
let drive n = Fx_mid.pick n

(* negative: transitively deterministic *)
let steady x = Fx_mid.calm x

(* i1 positive: scan_shared -> tbl_scan reaches Hashtbl.fold *)
let scan_shared tbl = Fx_mid.tbl_scan tbl

(* u1 negatives: a non-function export read, and an allowed export
   called *)
let first () = List.hd Fx_export.table
let tripled x = Fx_export.called_allowed x

(* u2: Fx_knob's calls, one passing ?scale, one forwarding it, one
   using a function first-class; a record that overrides one field *)
let knobs x =
  Fx_knob.never x + Fx_knob.test_passed x + Fx_knob.kept x
  + Fx_knob.passed_allowed ~scale:2 x
  + List.fold_left ( + ) 0 (List.map Fx_knob.first_class [ x ])

let forward ?scale x = Fx_knob.forwarded ?scale x
let opts = { Fx_knob.default_opts with overridden = 3 }
