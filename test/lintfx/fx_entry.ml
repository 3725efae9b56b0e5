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
