(* The LP data of a warm-restart walk, kept beside the solver state it
   is set on.  Every change goes to the state through its setters and
   into these arrays, from which [model] builds a fresh model with
   [Lp_model.add_var] and [add_row] alone: a cold reference solve of a
   walk step never goes through a solver state's setters. *)

open Flexile_lp

type t = {
  base : Lp_model.t;  (** row senses and coefficients *)
  lb : float array;
  ub : float array;
  obj : float array;
  rhs : float array;
}

let of_model m =
  let vars f = Array.init (Lp_model.nvars m) (f m) in
  {
    base = m;
    lb = vars Lp_model.lb;
    ub = vars Lp_model.ub;
    obj = vars Lp_model.obj_coef;
    rhs = Array.init (Lp_model.nrows m) (Lp_model.rhs m);
  }

let set_bounds w st j ~lb ~ub =
  Simplex.set_bounds st j ~lb ~ub;
  w.lb.(j) <- lb;
  w.ub.(j) <- ub

let set_obj w st j c =
  Simplex.set_obj st j c;
  w.obj.(j) <- c

let set_rhs w st i v =
  Simplex.set_rhs st i v;
  w.rhs.(i) <- v

let model w =
  let m = Lp_model.create () in
  Array.iteri
    (fun j lb -> ignore (Lp_model.add_var m ~lb ~ub:w.ub.(j) ~obj:w.obj.(j) ()))
    w.lb;
  Array.iteri
    (fun i rhs ->
      ignore
        (Lp_model.add_row m (Lp_model.row_sense w.base i) rhs
           (Lp_model.row_coeffs w.base i)))
    w.rhs;
  m

(* A fresh model of [m] under the right-hand side [rhs]. *)
let with_rhs m rhs =
  let w = of_model m in
  Array.blit rhs 0 w.rhs 0 (Array.length rhs);
  model w
