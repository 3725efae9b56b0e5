(* The median the end-to-end benchmark (flexbench) reports for its
   repeated timed phases. *)

let median samples =
  match List.sort compare samples with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let nth k = List.nth sorted k in
      if n mod 2 = 1 then nth (n / 2)
      else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.
