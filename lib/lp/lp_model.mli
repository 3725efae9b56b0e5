(** Linear-program model builder.

    A model is a minimization problem over variables with (possibly
    infinite) lower/upper bounds, linear rows with a sense ([Le], [Ge],
    [Eq]) and a right-hand side, and a linear objective.  Models are
    mutable while being built; the solver compiles them to a
    computational form on demand.

    Infinities are represented by [infinity] / [neg_infinity]. *)

type t

type var = int
(** Variable index, dense from 0. *)

type row = int
(** Row index, dense from 0. *)

type sense = Le | Ge | Eq

val create : ?name:string -> unit -> t

val name : t -> string

val copy : t -> t
(** An independent model with the same variables, rows, bounds, RHS and
    objective: changes to either leave the other as it was. *)

val add_var : t -> ?name:string -> ?lb:float -> ?ub:float -> ?obj:float -> unit -> var
(** Add a variable.  Defaults: [lb = 0.], [ub = infinity], [obj = 0.].
    Raises [Invalid_argument] if [lb > ub] or a bound is NaN. *)

val add_row : t -> ?name:string -> sense -> float -> (var * float) list -> row
(** [add_row t sense rhs coeffs] adds a constraint
    [sum_j c_j x_j  <sense>  rhs].  Duplicate variable entries are
    summed.  Raises [Invalid_argument] on an out-of-range variable. *)

val set_rhs : t -> row -> float -> unit
val rhs : t -> row -> float
val row_sense : t -> row -> sense

val set_coef : t -> row -> var -> float -> unit
(** [set_coef t row var c] changes the coefficient of an existing
    nonzero entry to the nonzero [c]; the sparsity pattern is fixed.
    Raises [Invalid_argument] if [row] has no entry for [var]. *)

val set_obj : t -> var -> float -> unit
val obj_coef : t -> var -> float

val set_bounds : t -> var -> lb:float -> ub:float -> unit
val lb : t -> var -> float
val ub : t -> var -> float
val var_name : t -> var -> string
val row_name : t -> row -> string

val nvars : t -> int
val nrows : t -> int

val row_coeffs : t -> row -> (var * float) list
(** Coefficients of a row, in insertion order (duplicates pre-summed). *)

(** Column-compressed view of the coefficient matrix, rebuilt lazily
    whenever rows were added or a coefficient changed since the last
    call.  Both views are shared by {!copy}s until one of them changes
    its matrix. *)
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
