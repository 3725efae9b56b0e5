(* Seeded environment reads for d1, judged as lib/ code: a value read
   from the environment changes what the code computes, so only a
   deployment setting with a reason may read one. *)

(* positive: an optional read *)
let mode () = Sys.getenv_opt "FX_MODE"

(* positive: the raising read *)
let home () = Sys.getenv "FX_HOME"

(* negative: a deployment setting, allowed with its reason *)
let workers () =
  match Sys.getenv_opt "FX_WORKERS" with
  | Some v -> int_of_string_opt v
  | None -> None
[@@lint.allow "d1-nondet"]

(* negative: the value passed in *)
let mode_of v = v
