(** Linear-program model builder.

    A model is a minimization problem over variables with (possibly
    infinite) lower/upper bounds, linear rows with a sense ([Le], [Ge],
    [Eq]) and a right-hand side, and a linear objective.  Models are
    built once and never changed after: a solver state
    ([Simplex.make]) reads the model's data at creation and owns its
    bounds, RHS, costs and coefficients from then on.

    Infinities are represented by [infinity] / [neg_infinity]. *)

type t

type var = int
(** Variable index, dense from 0. *)

type row = int
(** Row index, dense from 0. *)

type sense = Le | Ge | Eq

val create : ?name:string -> unit -> t

val name : t -> string

val add_var : t -> ?name:string -> ?lb:float -> ?ub:float -> ?obj:float -> unit -> var
(** Add a variable.  Defaults: [lb = 0.], [ub = infinity], [obj = 0.].
    Raises [Invalid_argument] if [lb > ub] or a bound is NaN. *)

val add_row : t -> ?name:string -> sense -> float -> (var * float) list -> row
(** [add_row t sense rhs coeffs] adds a constraint
    [sum_j c_j x_j  <sense>  rhs].  Duplicate variable entries are
    summed.  Raises [Invalid_argument] on an out-of-range variable. *)

val rhs : t -> row -> float
val row_sense : t -> row -> sense

val obj_coef : t -> var -> float

val lb : t -> var -> float
val ub : t -> var -> float
val var_name : t -> var -> string
val row_name : t -> row -> string

val nvars : t -> int
val nrows : t -> int

val row_coeffs : t -> row -> (var * float) list
(** Coefficients of a row, in insertion order (duplicates pre-summed). *)

(** Column-compressed view of the coefficient matrix, rebuilt lazily
    whenever variables or rows were added since the last call.  The
    solver states made from the model share both views read-only. *)
type csc = private {
  col_start : int array;  (** length nvars+1 *)
  row_idx : int array;
  values : float array;
}

val csc : t -> csc

(** Row-compressed view of the same matrix, entries of each row in
    ascending column order; rebuilt lazily like {!csc}. *)
type csr = private {
  row_start : int array;  (** length nrows+1 *)
  col_idx : int array;
  row_values : float array;
}

val csr : t -> csr

val objective_value : t -> float array -> float
(** Objective of a full primal assignment (length [nvars]). *)

val max_violation : t -> float array -> float
(** Largest bound or row violation of an assignment; 0. if feasible. *)
