let eq a b = Float.abs (a -. b) <= 1e-9

(* The one sanctioned home for exact IEEE equality: callers name the
   intent instead of writing a bare [=] that rule d2-float-eq would
   (rightly) refuse to distinguish from an accident. *)
let nonzero x = (x <> 0.) [@lint.allow "d2-float-eq"]
let exactly_equal (a : float) b = (a = b) [@lint.allow "d2-float-eq"]
