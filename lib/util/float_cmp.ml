let default_eps = 1e-9

let eq ?(eps = default_eps) a b = Float.abs (a -. b) <= eps
let zero ?(eps = default_eps) x = Float.abs x <= eps

(* The one sanctioned home for exact IEEE equality: callers name the
   intent instead of writing a bare [=] that rule d2-float-eq would
   (rightly) refuse to distinguish from an accident. *)
let exactly_zero x = (x = 0.) [@lint.allow "d2-float-eq"]
let nonzero x = not (exactly_zero x)
let exactly_equal (a : float) b = (a = b) [@lint.allow "d2-float-eq"]
