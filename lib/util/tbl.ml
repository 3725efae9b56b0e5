(* Sorting the key set first makes the traversal independent of bucket
   layout; the raw fold below only collects keys, so its order cannot
   escape. *)
let sorted_keys tbl =
  (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] [@lint.allow "d3-tbl-order"])
  |> List.sort_uniq compare

let sorted_bindings tbl =
  List.map (fun k -> (k, Hashtbl.find tbl k)) (sorted_keys tbl)
